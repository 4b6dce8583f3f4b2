#include "fidelity/persist_fidelity.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "stats/binio.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::fidelity
{

namespace
{

using persist::CacheInvalid;

constexpr char kProfileMagic[8] = {'W', 'S', 'E', 'L',
                                   'E', 'P', 'R', 'O'};
constexpr char kEscalationMagic[8] = {'W', 'S', 'E', 'L',
                                      'E', 'S', 'C', 'L'};
constexpr char kBatchMagic[8] = {'W', 'S', 'E', 'L',
                                 'F', 'B', 'A', 'T'};
constexpr char kReportMagic[8] = {'W', 'S', 'E', 'L',
                                  'H', 'Y', 'B', 'R'};

constexpr std::uint64_t kMaxWindow = 4096;
constexpr std::uint64_t kMaxBenchmarks = 1u << 20;
constexpr std::uint64_t kMaxNameLen = 256;
constexpr std::uint64_t kMaxRows = 1ULL << 48;
constexpr std::uint64_t kMaxBatchRows = 1u << 20;

using persist::appendChecksum;
using persist::appendF64;
using persist::appendString;
using persist::appendU32;
using persist::appendU64;
using persist::appendU8;
using persist::checkedBody;
using persist::Reader;
using persist::slurp;

void
checkCount(std::uint64_t v, std::uint64_t max, const char *field,
           const std::string &what)
{
    if (v > max)
        throw CacheInvalid(what + ": implausible " +
                           std::string(field) + " " +
                           std::to_string(v) + " (max " +
                           std::to_string(max) + ")");
}

void
appendIntervalStats(std::string &out, const IntervalStats &s)
{
    const Welford &life = s.lifetime();
    appendU64(out, life.n);
    appendF64(out, life.mean);
    appendF64(out, life.m2);
    const std::vector<double> win = s.windowValues();
    appendU32(out, static_cast<std::uint32_t>(win.size()));
    for (double v : win)
        appendF64(out, v);
}

void
readIntervalStats(Reader &r, std::size_t capacity,
                  IntervalStats &into, const std::string &what)
{
    Welford life;
    life.n = r.u64();
    life.mean = r.f64();
    life.m2 = r.f64();
    const std::uint32_t fill = r.u32();
    checkCount(fill, capacity, "window fill", what);
    if (fill > life.n)
        throw CacheInvalid(what +
                           ": window larger than sample count");
    std::vector<double> win;
    win.reserve(fill);
    for (std::uint32_t i = 0; i < fill; ++i)
        win.push_back(r.f64());
    into.restore(life, win);
}

} // namespace

std::string
errorProfilePath(const std::string &cache_dir)
{
    return cache_dir + "/error_profile.bin";
}

std::string
escalationRecordPath(const std::string &dir)
{
    return dir + "/fidelity-bitmap.bin";
}

std::string
fidelityBatchName(std::uint64_t index)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "fidelity-batch-%06llu.bin",
                  static_cast<unsigned long long>(index));
    return buf;
}

std::string
fidelityBatchPath(const std::string &dir, std::uint64_t index)
{
    return dir + "/" + fidelityBatchName(index);
}

std::string
hybridReportPath(const std::string &dir)
{
    return dir + "/hybrid.bin";
}

void
writeErrorProfile(const std::string &path, const ErrorProfile &p)
{
    std::string out;
    out.reserve(256 + 64 * p.numBenchmarks());
    out.append(kProfileMagic, 8);
    appendU32(out, kFidelityVersion);
    appendU64(out, p.suiteHash());
    appendU32(out, static_cast<std::uint32_t>(
                       p.globalStats().windowCapacity()));
    const std::size_t nb = p.numBenchmarks();
    appendU32(out, static_cast<std::uint32_t>(nb));
    for (std::size_t i = 0; i < nb; ++i) {
        appendString(out, p.benchmarkNames()[i]);
        appendU8(out,
                 static_cast<std::uint8_t>(p.benchClass(i)));
        appendIntervalStats(out, p.benchStats(i));
    }
    for (std::size_t c = 0; c < ErrorProfile::kNumClasses; ++c)
        appendIntervalStats(out, p.classStats(c));
    appendIntervalStats(out, p.globalStats());
    appendU32(out,
              static_cast<std::uint32_t>(p.appliedIds().size()));
    for (std::uint64_t id : p.appliedIds())
        appendU64(out, id);
    appendChecksum(out);
    persist::atomicWriteFile(path, out);
}

ErrorProfile
readErrorProfile(const std::string &path)
{
    const std::string what = "error profile";
    const std::string data = slurp(path, what);
    const std::string_view body = checkedBody(data, what);
    Reader r(body, what);
    r.expectMagic(kProfileMagic);
    const std::uint32_t version = r.u32();
    if (version != kFidelityVersion)
        throw CacheInvalid(what + ": unsupported version " +
                           std::to_string(version));
    const std::uint64_t suite_hash = r.u64();
    const std::uint32_t window = r.u32();
    checkCount(window, kMaxWindow, "window capacity", what);
    if (window == 0)
        throw CacheInvalid(what + ": zero window capacity");
    const std::uint32_t nb = r.u32();
    checkCount(nb, kMaxBenchmarks, "benchmark count", what);
    std::vector<std::string> names;
    std::vector<MpkiClass> classes;
    names.reserve(nb);
    classes.reserve(nb);
    std::vector<IntervalStats> bench_stats(nb,
                                           IntervalStats(window));
    for (std::uint32_t i = 0; i < nb; ++i) {
        names.push_back(r.str());
        checkCount(names.back().size(), kMaxNameLen,
                   "benchmark-name length", what);
        const std::uint8_t cls = r.u8();
        if (cls >= ErrorProfile::kNumClasses)
            throw CacheInvalid(what + ": implausible MPKI class " +
                               std::to_string(cls));
        classes.push_back(static_cast<MpkiClass>(cls));
        readIntervalStats(r, window, bench_stats[i], what);
    }
    ErrorProfile p(suite_hash, std::move(names),
                   std::move(classes), window);
    for (std::uint32_t i = 0; i < nb; ++i)
        p.benchStatsMut(i) = std::move(bench_stats[i]);
    for (std::size_t c = 0; c < ErrorProfile::kNumClasses; ++c)
        readIntervalStats(r, window, p.classStatsMut(c), what);
    readIntervalStats(r, window, p.globalStatsMut(), what);
    const std::uint32_t na = r.u32();
    checkCount(na, ErrorProfile::kMaxApplied, "applied-id count",
               what);
    std::vector<std::uint64_t> applied;
    applied.reserve(na);
    for (std::uint32_t i = 0; i < na; ++i)
        applied.push_back(r.u64());
    p.restoreApplied(std::move(applied));
    if (r.remaining() != 0)
        throw CacheInvalid(what + ": trailing bytes");
    return p;
}

void
EscalationRecord::resizeBitmap()
{
    bitmap.assign(static_cast<std::size_t>((rows() + 7) / 8), 0);
}

bool
EscalationRecord::escalated(std::uint64_t row) const
{
    if (row >= rows())
        WSEL_FATAL("escalation bitmap row " << row
                   << " outside " << rows() << " rows");
    return (bitmap[static_cast<std::size_t>(row / 8)] >>
            (row % 8)) &
           1;
}

void
EscalationRecord::setEscalated(std::uint64_t row)
{
    if (row >= rows())
        WSEL_FATAL("escalation bitmap row " << row
                   << " outside " << rows() << " rows");
    bitmap[static_cast<std::size_t>(row / 8)] |=
        static_cast<std::uint8_t>(1u << (row % 8));
}

void
writeEscalationRecord(const std::string &dir,
                      const EscalationRecord &rec)
{
    if (rec.lastRank < rec.firstRank)
        WSEL_FATAL("escalation record rank range inverted");
    if (rec.bitmap.size() !=
        static_cast<std::size_t>((rec.rows() + 7) / 8))
        WSEL_FATAL("escalation record bitmap has "
                   << rec.bitmap.size() << " bytes for "
                   << rec.rows() << " rows");
    std::string out;
    out.reserve(256 + rec.bitmap.size());
    out.append(kEscalationMagic, 8);
    appendU32(out, kFidelityVersion);
    appendU64(out, rec.badcoFingerprint);
    appendU64(out, rec.detailedFingerprint);
    appendU64(out, rec.seed);
    appendString(out, rec.metric);
    appendString(out, rec.policyX);
    appendString(out, rec.policyY);
    appendF64(out, rec.quantile);
    appendF64(out, rec.budgetFraction);
    appendF64(out, rec.threshold);
    appendU64(out, rec.firstRank);
    appendU64(out, rec.lastRank);
    appendU64(out, rec.escalatedCount);
    out.append(reinterpret_cast<const char *>(rec.bitmap.data()),
               rec.bitmap.size());
    appendChecksum(out);
    persist::atomicWriteFile(escalationRecordPath(dir), out);
}

bool
hasEscalationRecord(const std::string &dir)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(
        escalationRecordPath(dir), ec);
}

EscalationRecord
readEscalationRecord(const std::string &dir)
{
    const std::string what = "fidelity bitmap";
    const std::string data =
        slurp(escalationRecordPath(dir), what);
    const std::string_view body = checkedBody(data, what);
    Reader r(body, what);
    r.expectMagic(kEscalationMagic);
    if (r.u32() != kFidelityVersion)
        throw CacheInvalid(what + ": unsupported version");
    EscalationRecord rec;
    rec.badcoFingerprint = r.u64();
    rec.detailedFingerprint = r.u64();
    rec.seed = r.u64();
    rec.metric = r.str();
    checkCount(rec.metric.size(), 64, "metric-name length", what);
    rec.policyX = r.str();
    checkCount(rec.policyX.size(), kMaxNameLen,
               "policy-name length", what);
    rec.policyY = r.str();
    checkCount(rec.policyY.size(), kMaxNameLen,
               "policy-name length", what);
    rec.quantile = r.f64();
    rec.budgetFraction = r.f64();
    rec.threshold = r.f64();
    rec.firstRank = r.u64();
    rec.lastRank = r.u64();
    rec.escalatedCount = r.u64();
    if (rec.lastRank < rec.firstRank)
        throw CacheInvalid(what + ": inverted rank range");
    checkCount(rec.rows(), kMaxRows, "row count", what);
    if (rec.escalatedCount > rec.rows())
        throw CacheInvalid(what + ": escalated count " +
                           std::to_string(rec.escalatedCount) +
                           " exceeds " +
                           std::to_string(rec.rows()) + " rows");
    const std::uint64_t bytes = (rec.rows() + 7) / 8;
    if (r.remaining() != bytes)
        throw CacheInvalid(what + ": bitmap size mismatch");
    rec.bitmap.resize(static_cast<std::size_t>(bytes));
    if (bytes > 0)
        r.bytes(rec.bitmap.data(),
                static_cast<std::size_t>(bytes));
    // Stray bits past the last row and a lying count are both
    // damage: the popcount must equal escalatedCount exactly.
    std::uint64_t pop = 0;
    for (std::uint64_t row = 0; row < rec.rows(); ++row)
        pop += rec.escalated(row) ? 1 : 0;
    if (pop != rec.escalatedCount)
        throw CacheInvalid(what + ": bitmap popcount " +
                           std::to_string(pop) +
                           " does not match escalated count " +
                           std::to_string(rec.escalatedCount));
    if (bytes > 0 && rec.rows() % 8 != 0) {
        const std::uint8_t tail = rec.bitmap.back();
        const unsigned used = rec.rows() % 8;
        if (tail >> used)
            throw CacheInvalid(what +
                               ": stray bits past the last row");
    }
    return rec;
}

void
writeFidelityBatch(const std::string &dir, const FidelityBatch &b)
{
    const std::size_t rows = b.ranks.size();
    const std::size_t want = rows *
                             static_cast<std::size_t>(
                                 b.numPolicies) *
                             b.cores;
    if (b.ipc.size() != want)
        WSEL_FATAL("fidelity batch " << b.index << " has "
                   << b.ipc.size() << " cells, expected " << want);
    std::string out;
    out.reserve(64 + rows * 8 + b.ipc.size() * 8);
    out.append(kBatchMagic, 8);
    appendU32(out, kFidelityVersion);
    appendU32(out, static_cast<std::uint32_t>(b.index));
    appendU64(out, b.detailedFingerprint);
    appendU32(out, b.cores);
    appendU32(out, b.numPolicies);
    appendU64(out, b.firstOrdinal);
    appendU32(out, static_cast<std::uint32_t>(rows));
    for (std::uint64_t rank : b.ranks)
        appendU64(out, rank);
    for (double v : b.ipc)
        appendF64(out, v);
    appendChecksum(out);
    persist::atomicWriteFile(fidelityBatchPath(dir, b.index), out);
}

FidelityBatch
readFidelityBatch(const std::string &dir,
                  std::uint64_t fingerprint, std::uint64_t index)
{
    const std::string what =
        "fidelity " + fidelityBatchName(index);
    const std::string data =
        slurp(fidelityBatchPath(dir, index), what);
    const std::string_view body = checkedBody(data, what);
    Reader r(body, what);
    r.expectMagic(kBatchMagic);
    if (r.u32() != kFidelityVersion)
        throw CacheInvalid(what + ": unsupported version");
    FidelityBatch b;
    b.index = r.u32();
    if (b.index != index)
        throw CacheInvalid(what + ": wrong batch index");
    b.detailedFingerprint = r.u64();
    if (b.detailedFingerprint != fingerprint)
        throw CacheInvalid(what + ": fingerprint mismatch");
    b.cores = r.u32();
    checkCount(b.cores, 1024, "core count", what);
    b.numPolicies = r.u32();
    checkCount(b.numPolicies, 4096, "policy count", what);
    if (b.cores == 0 || b.numPolicies == 0)
        throw CacheInvalid(what + ": degenerate shape");
    b.firstOrdinal = r.u64();
    const std::uint32_t rows = r.u32();
    checkCount(rows, kMaxBatchRows, "row count", what);
    const std::uint64_t cells =
        static_cast<std::uint64_t>(rows) * b.numPolicies * b.cores;
    if (r.remaining() != rows * 8 + cells * 8)
        throw CacheInvalid(what + ": payload size mismatch");
    b.ranks.reserve(rows);
    for (std::uint32_t i = 0; i < rows; ++i)
        b.ranks.push_back(r.u64());
    b.ipc.reserve(static_cast<std::size_t>(cells));
    for (std::uint64_t i = 0; i < cells; ++i)
        b.ipc.push_back(r.f64());
    return b;
}

void
writeHybridReport(const std::string &dir,
                  const HybridReportRecord &rep)
{
    std::string out;
    out.reserve(256);
    out.append(kReportMagic, 8);
    appendU32(out, kFidelityVersion);
    appendU64(out, rep.badcoFingerprint);
    appendU64(out, rep.detailedFingerprint);
    appendString(out, rep.metric);
    appendString(out, rep.policyX);
    appendString(out, rep.policyY);
    appendU64(out, rep.workloads);
    appendU64(out, rep.escalated);
    appendF64(out, rep.escalationFraction);
    appendF64(out, rep.meanD);
    appendF64(out, rep.sigma);
    appendF64(out, rep.se);
    appendF64(out, rep.cv);
    appendF64(out, rep.confidence);
    appendF64(out, rep.modelLo);
    appendF64(out, rep.modelHi);
    appendF64(out, rep.comboLo);
    appendF64(out, rep.comboHi);
    appendU8(out, rep.yWins);
    appendChecksum(out);
    persist::atomicWriteFile(hybridReportPath(dir), out);
}

bool
hasHybridReport(const std::string &dir)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(hybridReportPath(dir),
                                            ec);
}

HybridReportRecord
readHybridReport(const std::string &dir)
{
    const std::string what = "hybrid report";
    const std::string data = slurp(hybridReportPath(dir), what);
    const std::string_view body = checkedBody(data, what);
    Reader r(body, what);
    r.expectMagic(kReportMagic);
    if (r.u32() != kFidelityVersion)
        throw CacheInvalid(what + ": unsupported version");
    HybridReportRecord rep;
    rep.badcoFingerprint = r.u64();
    rep.detailedFingerprint = r.u64();
    rep.metric = r.str();
    checkCount(rep.metric.size(), 64, "metric-name length", what);
    rep.policyX = r.str();
    checkCount(rep.policyX.size(), kMaxNameLen,
               "policy-name length", what);
    rep.policyY = r.str();
    checkCount(rep.policyY.size(), kMaxNameLen,
               "policy-name length", what);
    rep.workloads = r.u64();
    checkCount(rep.workloads, kMaxRows, "workload count", what);
    rep.escalated = r.u64();
    if (rep.escalated > rep.workloads)
        throw CacheInvalid(what + ": escalated count exceeds "
                                  "workload count");
    rep.escalationFraction = r.f64();
    rep.meanD = r.f64();
    rep.sigma = r.f64();
    rep.se = r.f64();
    rep.cv = r.f64();
    rep.confidence = r.f64();
    rep.modelLo = r.f64();
    rep.modelHi = r.f64();
    rep.comboLo = r.f64();
    rep.comboHi = r.f64();
    rep.yWins = r.u8();
    if (rep.yWins > 1)
        throw CacheInvalid(what + ": non-boolean verdict");
    if (r.remaining() != 0)
        throw CacheInvalid(what + ": trailing bytes");
    return rep;
}

} // namespace wsel::fidelity

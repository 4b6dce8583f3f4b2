#include "stats/persist_adaptive.hh"

#include <cstdio>
#include <filesystem>

#include "stats/binio.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::persist
{

namespace
{

constexpr char kBatchMagic[8] = {'W', 'S', 'A', 'D',
                                 'B', 'T', 'C', 'H'};
constexpr char kDecisionMagic[8] = {'W', 'S', 'A', 'D',
                                    'D', 'C', 'S', 'N'};

/** Rows per batch / trajectory entries an artifact may claim. */
constexpr std::uint64_t kMaxBatchRows = 1ULL << 26;
constexpr std::uint64_t kMaxTrajectory = 1ULL << 24;

} // namespace

std::string
adaptiveBatchName(std::uint64_t index)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "batch-%06llu.bin",
                  static_cast<unsigned long long>(index));
    return buf;
}

std::string
adaptiveBatchPath(const std::string &dir, std::uint64_t index)
{
    return dir + "/" + adaptiveBatchName(index);
}

std::string
adaptiveDecisionPath(const std::string &dir)
{
    return dir + "/adaptive.bin";
}

void
writeAdaptiveBatch(const std::string &dir, const AdaptiveBatch &b)
{
    if (b.ranks.size() != b.d.size())
        WSEL_FATAL("adaptive batch " << b.index << " has "
                   << b.ranks.size() << " ranks for " << b.d.size()
                   << " d values");
    if (b.ranks.empty())
        WSEL_FATAL("adaptive batch " << b.index << " is empty");
    std::string out;
    out.reserve(52 + b.ranks.size() * 16 + 8);
    out.append(kBatchMagic, 8);
    appendU32(out, kAdaptiveVersion);
    appendU64(out, b.fingerprint);
    appendU64(out, b.index);
    appendU64(out, b.firstPosition);
    appendU64(out, b.ranks.size());
    for (std::uint64_t r : b.ranks)
        appendU64(out, r);
    for (double v : b.d)
        appendF64(out, v);
    appendChecksum(out);
    atomicWriteFile(adaptiveBatchPath(dir, b.index), out);
}

AdaptiveBatch
readAdaptiveBatch(const std::string &dir, std::uint64_t fingerprint,
                  std::uint64_t index)
{
    const std::string what = "adaptive " + adaptiveBatchName(index);
    const std::string data =
        slurp(adaptiveBatchPath(dir, index), what);
    const std::string_view body = checkedBody(data, what);
    Reader r(body, what);
    r.expectMagic(kBatchMagic);
    if (r.u32() != kAdaptiveVersion)
        throw CacheInvalid(what + ": unsupported version");
    AdaptiveBatch b;
    b.fingerprint = r.u64();
    if (b.fingerprint != fingerprint)
        throw CacheInvalid(what + ": fingerprint mismatch");
    b.index = r.u64();
    if (b.index != index)
        throw CacheInvalid(what + ": wrong batch index");
    b.firstPosition = r.u64();
    const std::uint64_t rows = r.u64();
    if (rows == 0 || rows > kMaxBatchRows)
        throw CacheInvalid(what + ": implausible row count " +
                           std::to_string(rows));
    if (r.remaining() != rows * 16)
        throw CacheInvalid(what + ": payload size mismatch");
    b.ranks.reserve(rows);
    for (std::uint64_t i = 0; i < rows; ++i)
        b.ranks.push_back(r.u64());
    b.d.reserve(rows);
    for (std::uint64_t i = 0; i < rows; ++i)
        b.d.push_back(r.f64());
    return b;
}

void
writeAdaptiveDecision(const std::string &dir,
                      const AdaptiveDecisionRecord &d)
{
    std::string out;
    out.reserve(128 + d.trajectory.size() * 8);
    out.append(kDecisionMagic, 8);
    appendU32(out, kAdaptiveVersion);
    appendU64(out, d.fingerprint);
    out.push_back(static_cast<char>(d.reason));
    out.push_back(static_cast<char>(d.yWins));
    appendString(out, d.method);
    appendU64(out, d.batches);
    appendU64(out, d.workloads);
    appendF64(out, d.confidence);
    appendF64(out, d.cv);
    appendF64(out, d.target);
    appendU32(out, static_cast<std::uint32_t>(d.trajectory.size()));
    for (double c : d.trajectory)
        appendF64(out, c);
    appendChecksum(out);
    atomicWriteFile(adaptiveDecisionPath(dir), out);
}

bool
hasAdaptiveDecision(const std::string &dir)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(
        adaptiveDecisionPath(dir), ec);
}

AdaptiveDecisionRecord
readAdaptiveDecision(const std::string &dir)
{
    const std::string what = "adaptive decision";
    const std::string data = slurp(adaptiveDecisionPath(dir), what);
    const std::string_view body = checkedBody(data, what);
    Reader r(body, what);
    r.expectMagic(kDecisionMagic);
    if (r.u32() != kAdaptiveVersion)
        throw CacheInvalid(what + ": unsupported version");
    AdaptiveDecisionRecord d;
    d.fingerprint = r.u64();
    std::uint8_t b = 0;
    r.bytes(&b, 1);
    d.reason = b;
    r.bytes(&b, 1);
    d.yWins = b;
    d.method = r.str();
    if (d.method.size() > 64)
        throw CacheInvalid(what + ": implausible method name");
    d.batches = r.u64();
    d.workloads = r.u64();
    d.confidence = r.f64();
    d.cv = r.f64();
    d.target = r.f64();
    const std::uint32_t nt = r.u32();
    if (nt > kMaxTrajectory)
        throw CacheInvalid(what + ": implausible trajectory length");
    if (r.remaining() != static_cast<std::size_t>(nt) * 8)
        throw CacheInvalid(what + ": payload size mismatch");
    d.trajectory.reserve(nt);
    for (std::uint32_t i = 0; i < nt; ++i)
        d.trajectory.push_back(r.f64());
    return d;
}

} // namespace wsel::persist

#include "stats/persist_v3.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "stats/binio.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::persist
{

namespace
{

constexpr char kManifestMagic[8] = {'W', 'S', 'V', '3',
                                    'M', 'A', 'N', 'I'};
constexpr char kShardMagic[8] = {'W', 'S', 'V', '3',
                                 'S', 'H', 'R', 'D'};

/** C(b+k-1, k), the population size, saturating at UINT64_MAX. */
std::uint64_t
populationSize(std::uint64_t b, std::uint64_t k)
{
    if (b == 0)
        return 0;
    unsigned __int128 n = 1;
    for (std::uint64_t i = 1; i <= k; ++i) {
        n = n * (b - 1 + i) / i; // exact: n is C(b-2+i, i-1)
        if (n > UINT64_MAX)
            return UINT64_MAX;
    }
    return static_cast<std::uint64_t>(n);
}

} // namespace

std::uint64_t
V3Manifest::shardTag() const
{
    if (!listMode())
        return fingerprint;
    Fnv1a h;
    h.updateU64(fingerprint);
    for (std::uint64_t r : ranks)
        h.updateU64(r);
    return h.digest();
}

std::uint64_t
V3Manifest::shardCount() const
{
    if (shardRows == 0)
        WSEL_FATAL("v3 manifest with zero shard rows");
    return (rows() + shardRows - 1) / shardRows;
}

std::uint64_t
V3Manifest::rowsInShard(std::uint64_t shard) const
{
    const std::uint64_t begin = shard * shardRows;
    if (begin >= rows())
        WSEL_FATAL("shard " << shard << " outside campaign of "
                            << rows() << " rows");
    return std::min(shardRows, rows() - begin);
}

std::string
v3ShardName(std::uint64_t shard)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "shard-%06llu.bin",
                  static_cast<unsigned long long>(shard));
    return buf;
}

std::string
v3ManifestPath(const std::string &dir)
{
    return dir + "/manifest.bin";
}

std::string
v3ShardPath(const std::string &dir, std::uint64_t shard)
{
    return dir + "/" + v3ShardName(shard);
}

void
clearV3Dir(const std::string &dir)
{
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (name == "manifest.bin" ||
            (name.rfind("shard-", 0) == 0 && name.size() > 10 &&
             name.compare(name.size() - 4, 4, ".bin") == 0))
            std::filesystem::remove(it->path(), ec);
    }
}

bool
isV3CampaignDir(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::is_directory(path, ec) &&
           std::filesystem::is_regular_file(v3ManifestPath(path),
                                            ec);
}

void
writeV3Manifest(const std::string &dir, const V3Manifest &m)
{
    if (m.lastRank < m.firstRank)
        WSEL_FATAL("v3 manifest rank range inverted");
    if (m.shardRows == 0)
        WSEL_FATAL("v3 manifest with zero shard rows");
    if (m.refIpc.size() != m.benchmarks.size())
        WSEL_FATAL("v3 manifest refIpc/benchmark size mismatch");
    if (m.listMode() &&
        (m.firstRank != 0 || m.ranks.size() != m.rows()))
        WSEL_FATAL("v3 manifest rank list does not match its rows");
    std::string out;
    out.reserve(256 + 16 * (m.policies.size() +
                            m.benchmarks.size()) +
                8 * m.ranks.size());
    out.append(kManifestMagic, 8);
    appendU32(out, m.listMode() ? kV3ListVersion : kV3Version);
    appendU64(out, m.fingerprint);
    appendString(out, m.simulator);
    appendU32(out, m.cores);
    appendU64(out, m.targetUops);
    appendF64(out, m.simSeconds);
    appendU64(out, m.instructions);
    appendU32(out, static_cast<std::uint32_t>(m.policies.size()));
    for (const std::string &p : m.policies)
        appendString(out, p);
    appendU32(out, static_cast<std::uint32_t>(m.benchmarks.size()));
    for (const std::string &b : m.benchmarks)
        appendString(out, b);
    for (double r : m.refIpc)
        appendF64(out, r);
    appendU32(out, m.popBenchmarks);
    appendU32(out, m.popCores);
    appendU64(out, m.firstRank);
    appendU64(out, m.lastRank);
    appendU64(out, m.shardRows);
    if (m.listMode()) {
        appendU64(out, m.ranks.size());
        for (std::uint64_t r : m.ranks)
            appendU64(out, r);
    }
    appendChecksum(out);
    atomicWriteFile(v3ManifestPath(dir), out);
}

V3Manifest
readV3Manifest(const std::string &dir)
{
    const std::string what = "campaign_v3 manifest";
    const std::string data = slurp(v3ManifestPath(dir), what);
    const std::string_view body = checkedBody(data, what);
    Reader r(body, what);
    r.expectMagic(kManifestMagic);
    const std::uint32_t version = r.u32();
    if (version != kV3Version && version != kV3ListVersion)
        throw CacheInvalid(what + ": unsupported version " +
                           std::to_string(version));
    // Every size below is bounds-checked *before* it drives an
    // allocation or a multiplication: a manifest is untrusted disk
    // input (truncation, bit rot, a hostile write), so a damaged
    // count must surface as CacheInvalid — quarantine and
    // regenerate — never as a giant reserve() or an overflowed
    // payload-size computation.
    const auto checkCount = [&](std::uint64_t v, std::uint64_t max,
                                const char *field) {
        if (v > max)
            throw CacheInvalid(
                what + ": implausible " + field + " " +
                std::to_string(v) + " (max " + std::to_string(max) +
                ")");
    };
    V3Manifest m;
    m.fingerprint = r.u64();
    m.simulator = r.str();
    checkCount(m.simulator.size(), 64, "simulator-name length");
    m.cores = r.u32();
    checkCount(m.cores, 1024, "core count");
    m.targetUops = r.u64();
    m.simSeconds = r.f64();
    m.instructions = r.u64();
    const std::uint32_t np = r.u32();
    checkCount(np, 4096, "policy count");
    m.policies.reserve(np);
    for (std::uint32_t i = 0; i < np; ++i) {
        m.policies.push_back(r.str());
        checkCount(m.policies.back().size(), 256,
                   "policy-name length");
    }
    const std::uint32_t nb = r.u32();
    checkCount(nb, 1u << 20, "benchmark count");
    m.benchmarks.reserve(nb);
    for (std::uint32_t i = 0; i < nb; ++i) {
        m.benchmarks.push_back(r.str());
        checkCount(m.benchmarks.back().size(), 256,
                   "benchmark-name length");
    }
    m.refIpc.reserve(nb);
    for (std::uint32_t i = 0; i < nb; ++i)
        m.refIpc.push_back(r.f64());
    m.popBenchmarks = r.u32();
    m.popCores = r.u32();
    checkCount(m.popBenchmarks, 1u << 20, "population benchmarks");
    checkCount(m.popCores, 1024, "population cores");
    m.firstRank = r.u64();
    m.lastRank = r.u64();
    m.shardRows = r.u64();
    if (m.lastRank < m.firstRank || m.shardRows == 0 ||
        m.policies.empty() || m.cores == 0)
        throw CacheInvalid(what + ": inconsistent geometry");
    if (version == kV3ListVersion) {
        // Count, then every rank, checked before it is stored.
        const std::uint64_t n = r.u64();
        checkCount(n, r.remaining() / 8, "rank count");
        if (m.firstRank != 0 || n != m.rows())
            throw CacheInvalid(what + ": rank list of " +
                               std::to_string(n) + " entries for " +
                               std::to_string(m.rows()) + " rows");
        const std::uint64_t size =
            populationSize(m.popBenchmarks, m.popCores);
        m.ranks.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            m.ranks.push_back(r.u64());
            if (m.ranks.back() >= size)
                throw CacheInvalid(what + ": rank " +
                                   std::to_string(m.ranks.back()) +
                                   " outside the population of " +
                                   std::to_string(size));
        }
    }
    if (r.remaining() != 0)
        throw CacheInvalid(what + ": trailing bytes");
    // Rank range and shard geometry: cap so rows() and every
    // rows-per-shard x policies x cores product fits comfortably
    // in 64 bits (and a single shard's payload in size_t).
    constexpr std::uint64_t kMaxRows = 1ULL << 48;
    checkCount(m.rows(), kMaxRows, "row count");
    checkCount(m.shardRows, kMaxRows, "shard rows");
    const std::uint64_t cells_per_row =
        static_cast<std::uint64_t>(np) * m.cores;
    if (m.shardRows > (1ULL << 32) / std::max<std::uint64_t>(
                                         1, cells_per_row))
        throw CacheInvalid(what +
                           ": shard payload would overflow (" +
                           std::to_string(m.shardRows) + " rows x " +
                           std::to_string(np) + " policies x " +
                           std::to_string(m.cores) + " cores)");
    return m;
}

void
writeV3Shard(const std::string &dir, const V3Manifest &m,
             std::uint64_t shard, std::span<const double> payload)
{
    const std::uint64_t rows = m.rowsInShard(shard);
    const std::size_t want = static_cast<std::size_t>(rows) *
                             m.policies.size() * m.cores;
    if (payload.size() != want)
        WSEL_FATAL("shard " << shard << " payload has "
                            << payload.size() << " cells, expected "
                            << want);
    std::string out;
    out.reserve(44 + payload.size() * 8 + 8);
    out.append(kShardMagic, 8);
    appendU32(out, kV3Version);
    appendU32(out, static_cast<std::uint32_t>(shard));
    appendU64(out, m.shardTag());
    appendU32(out, m.cores);
    appendU32(out, static_cast<std::uint32_t>(m.policies.size()));
    appendU64(out, m.shardFirstRank(shard));
    appendU32(out, static_cast<std::uint32_t>(rows));
    if constexpr (std::endian::native == std::endian::little) {
        const std::size_t off = out.size();
        out.resize(off + payload.size() * 8);
        std::memcpy(out.data() + off, payload.data(),
                    payload.size() * 8);
    } else {
        for (double v : payload)
            appendF64(out, v);
    }
    appendChecksum(out);
    atomicWriteFile(v3ShardPath(dir, shard), out);
}

std::vector<double>
readV3Shard(const std::string &dir, const V3Manifest &m,
            std::uint64_t shard)
{
    const std::string what = "campaign_v3 " + v3ShardName(shard);
    const std::string data = slurp(v3ShardPath(dir, shard), what);
    const std::string_view body = checkedBody(data, what);
    Reader r(body, what);
    r.expectMagic(kShardMagic);
    if (r.u32() != kV3Version)
        throw CacheInvalid(what + ": unsupported version");
    if (r.u32() != shard)
        throw CacheInvalid(what + ": wrong shard index");
    if (r.u64() != m.shardTag())
        throw CacheInvalid(what + ": fingerprint mismatch");
    if (r.u32() != m.cores ||
        r.u32() != static_cast<std::uint32_t>(m.policies.size()))
        throw CacheInvalid(what + ": shape mismatch");
    if (r.u64() != m.shardFirstRank(shard))
        throw CacheInvalid(what + ": rank-range mismatch");
    const std::uint64_t rows = r.u32();
    if (rows != m.rowsInShard(shard))
        throw CacheInvalid(what + ": row-count mismatch");
    const std::size_t cells = static_cast<std::size_t>(rows) *
                              m.policies.size() * m.cores;
    if (r.remaining() != cells * 8)
        throw CacheInvalid(what + ": payload size mismatch");
    std::vector<double> payload(cells);
    if constexpr (std::endian::native == std::endian::little) {
        r.bytes(payload.data(), cells * 8);
    } else {
        for (std::size_t i = 0; i < cells; ++i)
            payload[i] = r.f64();
    }
    return payload;
}

} // namespace wsel::persist

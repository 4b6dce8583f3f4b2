#include "check.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "fidelity/persist_fidelity.hh"
#include "sim/campaign.hh"
#include "sim/population.hh"
#include "spans.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace fs = std::filesystem;

namespace perfbench
{

using namespace wsel;

namespace
{

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        WSEL_FATAL("cannot read " << p.string());
    return std::string(std::istreambuf_iterator<char>(in), {});
}

bool
digested(const std::string &name)
{
    auto has_prefix = [&](const char *p) {
        return name.rfind(p, 0) == 0;
    };
    auto ends_bin = name.size() > 4 &&
                    name.compare(name.size() - 4, 4, ".bin") == 0;
    return ends_bin &&
           (has_prefix("shard-") || has_prefix("fidelity-batch-") ||
            name == "fidelity-bitmap.bin" || name == "hybrid.bin");
}

/** The one-row manifest whose only shard is row @p rank of @p m. */
persist::V3Manifest
oneRow(const persist::V3Manifest &m, std::uint64_t rank)
{
    persist::V3Manifest r = m;
    r.firstRank = rank;
    r.lastRank = rank + 1;
    r.shardRows = 1;
    return r;
}

} // namespace

std::uint64_t
manifestDigest(const persist::V3Manifest &m)
{
    persist::Fnv1a h;
    auto str = [&](const std::string &v) {
        h.updateU64(v.size()).update(v);
    };
    h.updateU64(m.fingerprint);
    str(m.simulator);
    h.updateU64(m.cores).updateU64(m.targetUops).updateU64(m.instructions);
    h.updateU64(m.policies.size());
    for (const std::string &p : m.policies)
        str(p);
    h.updateU64(m.benchmarks.size());
    for (const std::string &b : m.benchmarks)
        str(b);
    h.updateU64(m.refIpc.size());
    for (double v : m.refIpc) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h.updateU64(bits);
    }
    h.updateU64(m.popBenchmarks).updateU64(m.popCores);
    h.updateU64(m.firstRank).updateU64(m.lastRank).updateU64(m.shardRows);
    return h.digest();
}

std::uint64_t
campaignDigest(const std::string &dir)
{
    persist::Fnv1a h;
    h.updateU64(manifestDigest(persist::readV3Manifest(dir)));
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.is_regular_file() &&
            digested(e.path().filename().string()))
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const fs::path &p : files) {
        const std::string name = p.filename().string();
        const std::string bytes = readFile(p);
        h.updateU64(name.size()).update(name);
        h.updateU64(bytes.size()).update(bytes);
    }
    return h.digest();
}

std::vector<double>
readRows(const std::string &dir, std::uint64_t first,
         std::uint64_t last)
{
    const persist::V3Manifest m = persist::readV3Manifest(dir);
    if (first < m.firstRank || last > m.lastRank || first > last)
        WSEL_FATAL("rows [" << first << ", " << last
                   << ") are outside campaign " << dir);
    const std::size_t width = m.policies.size() * m.cores;
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(last - first) * width);
    std::uint64_t rank = first;
    while (rank < last) {
        const std::uint64_t s = (rank - m.firstRank) / m.shardRows;
        const std::vector<double> payload =
            persist::readV3Shard(dir, m, s);
        const std::uint64_t s_first = m.shardFirstRank(s);
        const std::uint64_t s_last =
            std::min(last, s_first + m.rowsInShard(s));
        out.insert(out.end(),
                   payload.begin() + static_cast<std::ptrdiff_t>(
                                         (rank - s_first) * width),
                   payload.begin() + static_cast<std::ptrdiff_t>(
                                         (s_last - s_first) * width));
        rank = s_last;
    }
    return out;
}

std::size_t
recheckBadcoRows(const std::string &dir, const WorkloadPopulation &pop,
                 const std::vector<UncoreConfig> &ucfgs,
                 const std::vector<const BadcoModel *> &models,
                 std::uint64_t seed,
                 const std::vector<std::uint64_t> &ranks)
{
    std::size_t bad = 0;
    const persist::V3Manifest m = persist::readV3Manifest(dir);
    std::vector<double> payload;
    for (std::uint64_t rank : ranks) {
        try {
            const std::vector<double> want =
                readRows(dir, rank, rank + 1);
            Span sp("simulatePopulationShard.recheck");
            simulatePopulationShard(oneRow(m, rank), pop, ucfgs,
                                    models, seed, 0, payload);
            if (payload.size() != want.size() ||
                std::memcmp(payload.data(), want.data(),
                            want.size() * sizeof(double)) != 0)
                ++bad;
        } catch (const std::exception &e) {
            warn(std::string("perfbench: row recheck failed: ") +
                 e.what());
            ++bad;
        }
    }
    return bad;
}

std::size_t
recheckDetailedRows(const std::string &dir,
                    const WorkloadPopulation &pop,
                    const std::vector<UncoreConfig> &ucfgs,
                    const std::vector<BenchmarkProfile> &suite,
                    std::uint64_t seed, std::size_t max_rows)
{
    const persist::V3Manifest m = persist::readV3Manifest(dir);
    const fidelity::EscalationRecord rec =
        fidelity::readEscalationRecord(dir);
    std::size_t bad = 0;
    std::size_t checked = 0;
    persist::V3Manifest dm = m;
    dm.simulator = "detailed";
    dm.fingerprint = rec.detailedFingerprint;
    std::vector<double> payload;
    const std::size_t width = m.policies.size() * m.cores;
    for (std::uint64_t b = 0; checked < max_rows; ++b) {
        if (!fs::exists(fidelity::fidelityBatchPath(dir, b)))
            break;
        const fidelity::FidelityBatch batch =
            fidelity::readFidelityBatch(dir, rec.detailedFingerprint,
                                        b);
        for (std::size_t r = 0;
             r < batch.ranks.size() && checked < max_rows; ++r) {
            ++checked;
            Span sp("simulateDetailedPopulationShard");
            simulateDetailedPopulationShard(
                oneRow(dm, batch.ranks[r]), pop, CoreConfig{}, ucfgs,
                suite, seed, 0, payload);
            if (payload.size() != width ||
                std::memcmp(payload.data(),
                            batch.ipc.data() + r * width,
                            width * sizeof(double)) != 0)
                ++bad;
        }
    }
    return bad;
}

DigestBook::DigestBook(std::string path) : path_(std::move(path))
{
    std::ifstream in(path_);
    std::string key;
    std::string hex;
    std::uint64_t d = 0;
    while (in >> key >> hex)
        if (persist::parseHex(hex, d))
            digests_[key] = d;
}

const std::uint64_t *
DigestBook::find(const std::string &key) const
{
    const auto it = digests_.find(key);
    return it == digests_.end() ? nullptr : &it->second;
}

bool
DigestBook::record(const std::string &campaign, std::uint64_t digest)
{
    const auto [it, fresh] = digests_.emplace(campaign, digest);
    return fresh || it->second == digest;
}

void
DigestBook::save() const
{
    std::ostringstream os;
    for (const auto &[key, d] : digests_)
        os << key << " " << persist::toHex(d) << "\n";
    persist::ensureDirTree(fs::path(path_).parent_path().string());
    persist::atomicWriteFile(path_, os.str());
}

} // namespace perfbench

/**
 * @file
 * Sharded binary campaign format (`campaign_v3`), the one on-disk
 * form of every campaign: population, hybrid and serve runs, and
 * the sampled campaigns behind Campaign::save/load
 * (docs/PERFORMANCE.md, "Population campaigns").
 *
 * A v3 artifact is a *directory*:
 *
 *     <dir>/manifest.bin        written last (the commit point)
 *     <dir>/shard-000000.bin    fixed-width IPC cells
 *     <dir>/shard-000001.bin
 *     ...
 *
 * Every file is little-endian with a trailing 64-bit FNV-1a of all
 * preceding bytes and is written via atomicWriteFile, so PR 1's
 * checkpoint/resume semantics hold at shard granularity: a crash
 * leaves each shard either absent, complete, or quarantinable, and
 * a resumed run regenerates exactly the missing/invalid shards.
 *
 * Shard s covers campaign rows
 * [s*shardRows, min((s+1)*shardRows, rows)) in row order.  A
 * manifest names its rows in one of two modes:
 *
 *  - range mode (version 1): row r is population rank
 *    firstRank + r — population, hybrid and serve campaigns;
 *  - list mode (version 2): row r is rank `ranks[r]`, an explicit
 *    rank list (duplicates allowed, as sampling with replacement
 *    produces) stored under the manifest checksum — the sampled
 *    campaigns of runBadcoCampaign/runDetailedCampaign.
 *
 * Either way a cell's seed position is firstRank + r (firstRank is
 * 0 in list mode).  A shard's payload is rowsInShard(s) x policies
 * x cores doubles, row-major (workload, then policy, then core) —
 * the order cells are produced in, so writers stream.  Shards
 * carry no wall-clock timing (that lives in the manifest), which
 * is what makes serial and --jobs N runs bitwise identical per
 * shard.
 */

#ifndef WSEL_STATS_PERSIST_V3_HH
#define WSEL_STATS_PERSIST_V3_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace wsel::persist
{

/** Version of every shard and of a range-mode manifest. */
inline constexpr std::uint32_t kV3Version = 1;

/** Version of a list-mode manifest (ranks follow shardRows). */
inline constexpr std::uint32_t kV3ListVersion = 2;

/** Shard payload geometry and campaign identity (manifest.bin). */
struct V3Manifest
{
    std::uint64_t fingerprint = 0; ///< campaignFingerprint()
    std::string simulator;         ///< "badco" / "detailed"
    std::uint32_t cores = 0;       ///< K (threads per workload)
    std::uint64_t targetUops = 0;
    double simSeconds = 0.0;   ///< CPU seconds across cells
    std::uint64_t instructions = 0;
    std::vector<std::string> policies; ///< toString(PolicyKind)
    std::vector<std::string> benchmarks;
    std::vector<double> refIpc; ///< per benchmark, single-core ref
    std::uint32_t popBenchmarks = 0; ///< population shape B
    std::uint32_t popCores = 0;      ///< population shape K
    std::uint64_t firstRank = 0;     ///< first population rank
    std::uint64_t lastRank = 0;      ///< one past the last rank
    std::uint64_t shardRows = 0;     ///< workload rows per shard

    /**
     * List mode: the population rank of each row (rows() entries,
     * firstRank 0).  Empty in range mode.
     */
    std::vector<std::uint64_t> ranks;

    bool listMode() const { return !ranks.empty(); }
    std::uint64_t rows() const { return lastRank - firstRank; }

    /**
     * Identity stamped into every shard header: the fingerprint,
     * mixed with the rank list in list mode, so a resumed run never
     * adopts shards simulated for another sample.
     */
    std::uint64_t shardTag() const;

    std::uint64_t shardCount() const;
    std::uint64_t rowsInShard(std::uint64_t shard) const;
    /** Seed position of the shard's first row: its population rank
     * in range mode, its list index in list mode. */
    std::uint64_t shardFirstRank(std::uint64_t shard) const
    {
        return firstRank + shard * shardRows;
    }
};

/** "shard-000042.bin". */
std::string v3ShardName(std::uint64_t shard);

std::string v3ManifestPath(const std::string &dir);
std::string v3ShardPath(const std::string &dir, std::uint64_t shard);

/** True when @p path is a directory containing a manifest.bin. */
bool isV3CampaignDir(const std::string &path);

/**
 * Remove the manifest and every shard file from @p dir, leaving any
 * other file alone (a fresh, non-resuming run).
 */
void clearV3Dir(const std::string &dir);

/** Atomically write the manifest (call after all shards). */
void writeV3Manifest(const std::string &dir, const V3Manifest &m);

/** Read + validate the manifest; throws CacheInvalid on damage. */
V3Manifest readV3Manifest(const std::string &dir);

/**
 * Atomically write shard @p shard.  @p payload must hold exactly
 * rowsInShard(shard) * policies * cores doubles in row-major
 * (workload, policy, core) order.
 */
void writeV3Shard(const std::string &dir, const V3Manifest &m,
                  std::uint64_t shard,
                  std::span<const double> payload);

/**
 * Read + validate shard @p shard against the manifest geometry;
 * throws CacheInvalid when missing, truncated, checksum-damaged, or
 * mismatched (fingerprint/shape/index).
 */
std::vector<double> readV3Shard(const std::string &dir,
                                const V3Manifest &m,
                                std::uint64_t shard);

} // namespace wsel::persist

#endif // WSEL_STATS_PERSIST_V3_HH

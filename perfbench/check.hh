/**
 * @file
 * The benchmark's output check.  Every simulated statistic is
 * deterministic for a fixed seed, so results are compared bitwise:
 *
 *  - a campaign's digest covers every shard, fidelity batch,
 *    escalation bitmap and hybrid report byte for byte, and the
 *    manifest by its decoded fields minus simSeconds (host CPU
 *    seconds, which differ between identical runs);
 *  - a seeded sample of committed rows is recomputed through the
 *    serial engine (batch 1, jobs 1) and must match bitwise;
 *  - digests are kept per (workload, seed, campaign) so a later run
 *    of the same seed, and the traced copy of a window, must
 *    reproduce them;
 *  - a fixed reference campaign per workload must reproduce the
 *    digest committed in perfbench/reference_digests.txt, so a
 *    change to the simulated results shows on any tree.
 */

#ifndef PERFBENCH_CHECK_HH
#define PERFBENCH_CHECK_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "badco/badco_model.hh"
#include "core/workload/workload.hh"
#include "cpu/core_config.hh"
#include "mem/uncore_config.hh"
#include "stats/persist_v3.hh"
#include "trace/benchmark_profile.hh"

namespace perfbench
{

/** Digest of a manifest's decoded fields except simSeconds. */
std::uint64_t manifestDigest(const wsel::persist::V3Manifest &m);

/**
 * Digest of a campaign directory: the decoded manifest plus the raw
 * bytes of every shard-*.bin, fidelity-batch-*.bin,
 * fidelity-bitmap.bin and hybrid.bin, in name order.  Throws
 * wsel::FatalError / CacheInvalid when the manifest is unreadable
 * or invalid.
 */
std::uint64_t campaignDigest(const std::string &dir);

/**
 * Recompute rows @p ranks of a committed BADCO campaign in @p dir
 * through simulatePopulationShard (one row per call, one thread)
 * and compare them bitwise with the stored shard rows.  Returns the
 * number of rows that differ or could not be read.
 */
std::size_t recheckBadcoRows(
    const std::string &dir, const wsel::WorkloadPopulation &pop,
    const std::vector<wsel::UncoreConfig> &ucfgs,
    const std::vector<const wsel::BadcoModel *> &models,
    std::uint64_t seed, const std::vector<std::uint64_t> &ranks);

/**
 * Recompute escalated rows of a hybrid campaign in @p dir on the
 * detailed simulator (one row per call, one thread) and compare
 * them bitwise with its fidelity batches.  Returns mismatches.
 */
std::size_t recheckDetailedRows(
    const std::string &dir, const wsel::WorkloadPopulation &pop,
    const std::vector<wsel::UncoreConfig> &ucfgs,
    const std::vector<wsel::BenchmarkProfile> &suite,
    std::uint64_t seed, std::size_t max_rows);

/** Stored rows [first, last) of a committed campaign, row-major. */
std::vector<double> readRows(const std::string &dir,
                             std::uint64_t first, std::uint64_t last);

/**
 * Campaign digests by key, one "key hex" line per campaign in a
 * small text file.  The run's own book is kept per (workload, seed),
 * so a later run of the same seed and the traced copy of a window
 * must reproduce what an earlier run stored; the committed reference
 * book holds digests that every source tree must reproduce.
 */
class DigestBook
{
  public:
    /** Load @p path; a missing file is an empty book. */
    explicit DigestBook(std::string path);

    /** The digest stored for @p key, or nullptr. */
    const std::uint64_t *find(const std::string &key) const;

    /** false when a different digest is already stored for @p key. */
    bool record(const std::string &key, std::uint64_t digest);

    /** Write the union back. */
    void save() const;

  private:
    std::string path_;
    std::map<std::string, std::uint64_t> digests_;
};

} // namespace perfbench

#endif // PERFBENCH_CHECK_HH

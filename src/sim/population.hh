/**
 * @file
 * Population-scale BADCO campaign runner (paper §VI): simulate a
 * (sub)population of workloads — 12650 at 4 cores, 4.3M at
 * 8 cores — under every policy while
 *
 *  - streaming workloads by rank (WorkloadCursor; no O(N)
 *    Workload materialization),
 *  - writing IPC cells to the sharded binary campaign_v3 format
 *    (src/stats/persist_v3.hh) with per-shard checksums and atomic
 *    replace, so a killed run resumes at shard granularity and a
 *    truncated shard is quarantined and regenerated,
 *  - computing the paper's difference statistics d(w) in one
 *    streaming pass per shard: Welford mean/variance/cv, a
 *    fixed-bin histogram, and a deterministic quantile sketch that
 *    feeds workload-stratum construction (core/sampling) without
 *    ever holding a population-sized vector.
 *
 * Per-cell seeds come from campaignCellSeed(fingerprint, seed,
 * policy, absolute rank), and shard files carry no timing, so
 * serial and --jobs N runs produce bitwise-identical artifacts and
 * the per-shard statistics merge deterministically in shard order
 * (docs/PARALLELISM.md contract extended to shards).
 *
 * The shard loop itself (runV3Shards, which schedules rows and
 * stores shards) and the row simulators are shared with
 * runBadcoCampaign/runDetailedCampaign (sim/campaign.hh), which run
 * list-mode manifests through them.
 */

#ifndef WSEL_SIM_POPULATION_HH
#define WSEL_SIM_POPULATION_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "core/metrics/throughput.hh"
#include "core/workload/workload.hh"
#include "mem/uncore_config.hh"
#include "sim/model_store.hh"
#include "stats/histogram.hh"
#include "stats/persist_v3.hh"
#include "stats/summary.hh"

namespace wsel
{

/**
 * One policy pair to accumulate d(w) statistics for during the
 * campaign: d = difference(metric, t_x, t_y), oriented so positive
 * values support "y outperforms x" (§III: Y is the hypothesized
 * winner).
 */
struct PopulationPairSpec
{
    std::size_t x = 0; ///< policy index of X (hypothesized loser)
    std::size_t y = 0; ///< policy index of Y (hypothesized winner)
    ThroughputMetric metric = ThroughputMetric::IPCT;
    std::string label;
};

/** Streamed statistics for one pair, merged over all shards. */
struct PopulationPairSummary
{
    PopulationPairSpec spec;
    RunningStats d;    ///< one-pass Welford over d(w)
    Histogram hist;    ///< fixed-bin d(w) distribution
    QuantileSketch sketch; ///< uniform d(w) sample for strata

    PopulationPairSummary(const PopulationPairSpec &s, double lo,
                          double hi, std::size_t bins,
                          std::size_t sketch_capacity)
        : spec(s), hist(lo, hi, bins), sketch(sketch_capacity)
    {
    }

    double cv() const { return d.coefficientOfVariation(); }

    double
    inverseCv() const
    {
        const double c = cv();
        return c == 0.0 ? 0.0 : 1.0 / c;
    }
};

struct PopulationOptions
{
    std::uint64_t seed = 1;

    /**
     * Worker threads over the rows of the shards to simulate (and
     * over the suite's reference runs); 0 = $WSEL_JOBS else
     * hardware.
     */
    std::size_t jobs = 1;

    /**
     * Target cells (workloads x policies) per shard; the row count
     * is shardCells / policies, floored, min 1.  64Ki cells x 8
     * bytes = 512 KiB shard payloads.
     */
    std::size_t shardCells = 64 * 1024;

    /** Rank range [firstRank, lastRank); lastRank 0 = pop.size(). */
    std::uint64_t firstRank = 0;
    std::uint64_t lastRank = 0;

    /**
     * Reuse intact shards already in the output directory
     * (checkpoint/resume); false starts from scratch.  Invalid
     * shards are quarantined to `*.corrupt` and regenerated either
     * way.
     */
    bool resume = true;

    bool verbose = false;

    /** d(w) histogram shape (d is a throughput difference). */
    double histLo = -0.5;
    double histHi = 0.5;
    std::size_t histBins = 64;

    /** Quantile-sketch capacity (kept d(w) samples per pair). */
    std::size_t sketchCapacity = 4096;

    /**
     * Cells per batch for the batched BADCO engine (sim/batch.hh):
     * 0 resolves WSEL_BATCH_CELLS (default 32), 1 runs cells
     * serially. Rows are the scheduling unit, so a batch never
     * spans more than one row's cells. Results are bitwise
     * identical at every value.
     */
    std::uint32_t batchCells = 0;
};

/** Result of a population campaign run. */
struct PopulationResult
{
    std::string dir; ///< the campaign_v3 artifact directory
    persist::V3Manifest manifest;
    std::vector<PopulationPairSummary> pairs;

    std::uint64_t cellsSimulated = 0;
    std::uint64_t cellsResumed = 0;
    std::uint64_t shardsWritten = 0;
    std::uint64_t shardsResumed = 0;

    /** Wall seconds of this run (excludes resumed shards' work). */
    double wallSeconds = 0.0;
    /**
     * Of wallSeconds: the shard pass (resume, simulate, commit).
     * Nearly all the rest is set-up (BADCO models, reference IPCs).
     */
    double passSeconds = 0.0;

    /** Cells simulated per second of the shard pass. */
    double
    cellsPerSec() const
    {
        return passSeconds > 0.0
                   ? static_cast<double>(cellsSimulated) /
                         passSeconds
                   : 0.0;
    }
};

/**
 * Simulate rows [@p row_begin, @p row_end) of one campaign_v3
 * shard into @p out, which must hold exactly (row_end - row_begin)
 * x policies x cores doubles (row-major: workload, policy, core).
 * This row range is the unit of work of every in-process runner
 * (runV3Shards fans a shard's rows out over its workers); the
 * whole-shard functions below wrap it for the `wsel_worker`
 * processes of the distributed campaign service (src/serve/).
 * Rows come from the manifest's rank range or, in list mode, its
 * rank list; per-cell seeds are campaignCellSeed(m.fingerprint,
 * base_seed, policy, firstRank + row position) — the absolute rank
 * in range mode, the list index in list mode — so any process
 * producing a given row, in any range, produces bitwise-identical
 * bytes.
 *
 * Cells run through the batched BADCO engine (sim/batch.hh) in
 * groups of @p batch_cells (resolved via resolveBatchCells; the
 * group never spans more than the range's cells); the payload is
 * bitwise identical at every batch size.  @p ucfgs must hold one
 * UncoreConfig per manifest policy (in order) and @p models one
 * BADCO model per suite benchmark.  The "population.cell" fault
 * point fires once per cell, in row-major order, at batch-append
 * time (tests/fault_injection.hh; the worker binary can arm it to
 * SIGKILL itself mid-shard): a fault mid-range abandons the whole
 * (unwritten) shard, so resume semantics do not depend on the
 * batch size or the range.
 */
void simulatePopulationRows(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard,
    std::uint64_t row_begin, std::uint64_t row_end,
    std::uint32_t batch_cells, std::span<double> out);

/**
 * Detailed-fidelity twin of simulatePopulationRows: the same row
 * layout and campaignCellSeed contract, but every cell runs on the
 * cycle-level DetailedMulticoreSim (so the manifest's fingerprint
 * must be a "detailed" one), and each row's trace chunks are
 * pinned once for its np x k cells.  The unit of work behind
 * escalated shards in mixed-fidelity campaigns (docs/FIDELITY.md)
 * and runDetailedCampaign; its kill point is "fidelity.escalate",
 * fired once per cell.
 */
void simulateDetailedPopulationRows(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const CoreConfig &core_cfg,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t base_seed, std::uint64_t shard,
    std::uint64_t row_begin, std::uint64_t row_end,
    std::span<double> out);

/**
 * Simulate every cell of one shard into @p payload (resized to
 * rowsInShard(shard) x policies x cores) on the serial BADCO
 * engine: one BadcoMulticoreSim per cell, bitwise identical to
 * simulatePopulationRows at every batch size.  The reference
 * engine behind the batched one (tests/test_batch.cc, perfbench).
 */
void simulatePopulationShard(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard,
    std::vector<double> &payload);

/**
 * simulatePopulationRows over every row of @p shard, into
 * @p payload (resized to the shard's cells). @p batch_wave is
 * ignored: it names the width of a removed wavefront mode and
 * stays only so existing callers keep compiling.
 */
void simulatePopulationShardBatched(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard,
    std::uint32_t batch_cells, std::uint32_t batch_wave,
    std::vector<double> &payload);

/**
 * simulateDetailedPopulationRows over every row of @p shard, into
 * @p payload (resized to the shard's cells).
 */
void simulateDetailedPopulationShard(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const CoreConfig &core_cfg,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t base_seed, std::uint64_t shard,
    std::vector<double> &payload);

/** What one pass of runV3Shards did. */
struct ShardLoopStats
{
    std::uint64_t cellsSimulated = 0;
    std::uint64_t cellsResumed = 0;
    std::uint64_t shardsWritten = 0;
    std::uint64_t shardsResumed = 0;
    /** Summed row and commit wall time of the simulated shards. */
    double simSeconds = 0.0;
};

/**
 * Simulate rows [row_begin, row_end) of a shard into the given
 * slice of its payload: simulate(shard, row_begin, row_end, out).
 */
using ShardRowSimulator =
    std::function<void(std::uint64_t, std::uint64_t, std::uint64_t,
                       std::span<double>)>;

/**
 * The shard loop behind every in-process campaign_v3 runner.  The
 * shard is the unit of storage, resume and content addressing; the
 * row is the unit of scheduling (exec::fanOutStored):
 *
 *  1. Resume pass: when @p dir is non-empty, every intact shard
 *     already there is handed to @p consume (a damaged one is
 *     quarantined).
 *  2. One parallel loop on min(jobs, rows) workers (@p jobs
 *     resolved by exec::resolveJobs) over the rows of every shard
 *     still to simulate, in shard-then-row order: each row is one
 *     @p simulate call into its shard's payload slice.  A shard's
 *     payload is allocated when its first row is claimed; the
 *     thread that finishes its last row writes the shard atomically,
 *     hands it to @p consume and frees it, so at most jobs + 1
 *     payloads are open at once.
 *
 * @p consume may therefore run concurrently for different shards,
 * and resumed shards are consumed before simulated ones.  At one
 * job everything runs inline, in shard and row order.  Each
 * simulated shard's commit is a "<runner>.shard" span and counts
 * its cells into "<runner>.cells", each reused one into
 * "<runner>.cells_resumed"; the loop sets "<runner>.progress" (the
 * fraction of this pass's cells simulated) as rows complete and
 * "<runner>.cells_per_sec" at the end.  @p dir is created when
 * missing; the caller commits the manifest.
 */
ShardLoopStats runV3Shards(
    const persist::V3Manifest &m, const std::string &dir,
    std::size_t jobs, bool verbose, const std::string &runner,
    const ShardRowSimulator &simulate,
    const std::function<void(std::uint64_t, std::span<const double>)>
        &consume);

/**
 * Run (or resume) a BADCO population campaign over ranks
 * [opts.firstRank, opts.lastRank) of @p pop, writing a campaign_v3
 * artifact to @p out_dir (created if missing) and returning the
 * streamed per-pair statistics.  Memory is O(shard), independent
 * of the population size.
 */
PopulationResult runBadcoPopulationCampaign(
    const WorkloadPopulation &pop,
    const std::vector<PolicyKind> &policies,
    std::uint64_t target_uops, BadcoModelStore &store,
    const std::vector<BenchmarkProfile> &suite,
    const std::vector<PopulationPairSpec> &pairs,
    const std::string &out_dir, const PopulationOptions &opts = {});

} // namespace wsel

#endif // WSEL_SIM_POPULATION_HH

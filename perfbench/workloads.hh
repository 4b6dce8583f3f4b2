/**
 * @file
 * The benchmark's workloads and the run that measures one of them.
 *
 *  - pop4-badco: in-process BADCO population campaigns (4 cores, all
 *    five policies, 100k µops, default shard and batch settings) over
 *    seeded contiguous rank windows: the paper's §VI sweep.
 *  - hybrid-detailed: DIP-vs-LRU mixed-fidelity campaigns with a 25%
 *    escalation budget (10k µops), where the detailed core dominates.
 *  - serve-3w: an in-process coordinator and min(nproc-1, 3)
 *    wsel_worker processes with small shards; each window is
 *    submitted twice, the second time shifted by half a window, so
 *    store reads and dedup sit next to writes.
 *
 * A run sets up from an empty cache directory several times
 * (setup_s is their median), then submits campaigns over seeded
 * windows until --seconds have passed (cells_per_s), then checks the
 * outputs.  A traced run instead runs every window twice, once with
 * spans off and once with spans on, then adds per-layer probes.  Every
 * run also replays a fixed reference window whose digest is committed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "core/workload/workload.hh"
#include "mem/uncore_config.hh"
#include "sim/model_store.hh"
#include "trace/benchmark_profile.hh"

namespace perfbench
{

/** One campaign's input: a contiguous rank window and its seed. */
struct Window
{
    std::uint64_t first = 0;
    std::uint64_t last = 0; ///< one past the last rank
    std::uint64_t seed = 1;
};

/** What one campaign did; failures never throw out of a run. */
struct Outcome
{
    Window window;
    std::vector<std::string> dirs; ///< committed campaign dirs
    std::uint64_t attempted = 0;   ///< cells submitted
    std::uint64_t committed = 0;   ///< cells in committed results
    std::string error;             ///< empty when it succeeded
    std::uint64_t digest = 0;
    double seconds = 0.0; ///< host wall time of the campaign
    bool digestOk = true; ///< overlap and digest checks passed

    /** hybrid: escalated rows and their BADCO-vs-detailed error. */
    std::uint64_t rows = 0;
    std::uint64_t escalatedRows = 0;
    double errSum = 0.0; ///< sum over cells of mean |rel. IPC err|
    std::uint64_t errCells = 0;

    /** serve: shards of both submissions, dedup and commit gaps. */
    std::uint64_t shards = 0;
    std::uint64_t deduped = 0;
    std::vector<double> commitGaps; ///< seconds between commits

    bool ok() const { return error.empty(); }
};

/** Cells attempted and failed over a list of campaigns. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

Tally tally(const std::vector<Outcome> &outcomes);

/** The simulation inputs shared by every campaign of a run. */
struct SimContext
{
    SimContext(std::uint64_t uops, std::vector<wsel::PolicyKind> pols,
               std::size_t jobs);

    std::vector<wsel::BenchmarkProfile> suite;
    wsel::WorkloadPopulation pop;
    std::vector<wsel::PolicyKind> policies;
    std::vector<wsel::UncoreConfig> ucfgs; ///< one per policy
    std::uint64_t uops;
    std::size_t jobs;

    std::string cacheDir;
    std::unique_ptr<wsel::BadcoModelStore> store;
    std::vector<const wsel::BadcoModel *> models;

    /** Build (or load) the models through @p cache_dir. */
    void loadModels(const std::string &cache_dir);
};

/**
 * Run one in-process BADCO population campaign over @p w into
 * @p dir (every policy pair's d(w) statistics streamed, as the CLI
 * does).  A campaign that throws is recorded as failed.
 */
Outcome runPopulationCampaign(SimContext &ctx, const Window &w,
                              const std::string &dir);

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string runDir;   ///< fresh, private to this run
    std::string stateDir; ///< kept across runs (digests, reports)
    std::string workerBin;
    std::string referenceFile; ///< committed reference digests
    std::string sourceId; ///< source-tree hash, and git sha if any
    std::size_t jobs = 1; ///< min(nproc, 4)
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics; ///< end-to-end, or per-layer if traced
    std::vector<std::string> notes;
};

/** Measure one workload; throws only on a harness fault. */
RunResult runWorkload(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

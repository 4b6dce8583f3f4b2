/**
 * @file
 * Multicore multiprogram simulators implementing the paper's
 * §IV-A protocol: K threads on K identical cores sharing one
 * uncore; a thread that finishes its slice restarts; simulation
 * ends when every thread has executed its target; per-thread IPC is
 * measured over the first target µops only.
 *
 * Two implementations share the protocol: the detailed cycle-level
 * simulator (Zesto's role) and the BADCO behavioural simulator.
 */

#ifndef WSEL_SIM_MULTICORE_HH
#define WSEL_SIM_MULTICORE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "badco/badco_model.hh"
#include "cpu/core_config.hh"
#include "core/workload/workload.hh"
#include "mem/uncore.hh"
#include "trace/benchmark_profile.hh"

namespace wsel
{

/** Outcome of one multiprogram simulation. */
struct SimResult
{
    /** Per-core IPC over the first target µops of each thread. */
    std::vector<double> ipc;

    /** Cycle at which the last thread reached its target. */
    std::uint64_t cycles = 0;

    /** µops counted for throughput (cores x target). */
    std::uint64_t instructions = 0;

    /** Host seconds spent simulating. */
    double wallSeconds = 0.0;

    /** Per-core LLC demand misses (for MPKI reports). */
    std::vector<std::uint64_t> llcDemandMisses;

    /** Simulation speed in million instructions per second. */
    double mips() const;
};

/**
 * Detailed cycle-level multicore simulator (the "Zesto" role).
 */
class DetailedMulticoreSim
{
  public:
    /**
     * @param core_cfg Core parameters (identical cores, Table I).
     * @param uncore_cfg Shared-uncore parameters (Table II).
     * @param cores Core count K.
     * @param target_uops Per-thread slice length.
     * @param seed Determinism seed.
     */
    DetailedMulticoreSim(const CoreConfig &core_cfg,
                         const UncoreConfig &uncore_cfg,
                         std::uint32_t cores,
                         std::uint64_t target_uops,
                         std::uint64_t seed = 1);

    /**
     * Simulate @p workload; thread k runs
     * suite[workload[k]].
     */
    SimResult run(const Workload &workload,
                  const std::vector<BenchmarkProfile> &suite) const;

    /**
     * Single-thread reference IPC for each suite benchmark running
     * alone on this machine (used by speedup metrics).  Each
     * benchmark is its own freshly seeded run into its own slot,
     * spread over @p jobs workers (0 = exec::defaultJobs()), so the
     * result is bitwise identical at every job count.
     */
    std::vector<double> referenceIpcs(
        const std::vector<BenchmarkProfile> &suite,
        std::size_t jobs = 1) const;

    std::uint32_t cores() const { return cores_; }
    std::uint64_t targetUops() const { return targetUops_; }
    const UncoreConfig &uncoreConfig() const { return uncoreCfg_; }

  private:
    CoreConfig coreCfg_;
    UncoreConfig uncoreCfg_;
    std::uint32_t cores_;
    std::uint64_t targetUops_;
    std::uint64_t seed_;
};

/**
 * BADCO behavioural multicore simulator. Machines run in rotating
 * round-robin quanta against the shared uncore (quantum-based
 * multicore simulation; the quantum bounds cross-core timing skew).
 */
class BadcoMulticoreSim
{
  public:
    /**
     * @param uncore_cfg Shared-uncore parameters.
     * @param cores Core count K.
     * @param target_uops Per-thread slice length.
     * @param seed Determinism seed.
     * @param window BADCO-machine window override; 0 uses each
     *        model's calibrated per-benchmark window.
     * @param max_outstanding BADCO-machine outstanding-load cap.
     * @param quantum Simulation quantum in cycles.
     */
    BadcoMulticoreSim(const UncoreConfig &uncore_cfg,
                      std::uint32_t cores, std::uint64_t target_uops,
                      std::uint64_t seed = 1,
                      std::uint32_t window = 0,
                      std::uint32_t max_outstanding = 16,
                      std::uint64_t quantum = 50);

    /**
     * Simulate @p workload; machine k executes models[workload[k]].
     * @param models One model pointer per suite benchmark.
     */
    SimResult run(const Workload &workload,
                  const std::vector<const BadcoModel *> &models)
        const;

    /**
     * Allocation-free variant for streamed population campaigns:
     * @p benches is the sorted benchmark multiset (K entries), e.g.
     * a WorkloadCursor span; no Workload is materialized.
     */
    SimResult run(std::span<const std::uint32_t> benches,
                  const std::vector<const BadcoModel *> &models)
        const;

    /**
     * Choose the multiprogram protocol: true (default) restarts a
     * finished thread so it keeps generating interference until
     * every thread reaches its target (the paper's §IV-A rule);
     * false halts finished threads (a common alternative the
     * paper's footnote 4 contrasts with more rigorous methods).
     */
    void restartFinishedThreads(bool restart)
    {
        restartThreads_ = restart;
    }

    /**
     * Single-machine reference IPCs from the models: one freshly
     * seeded run per model into its own slot, spread over @p jobs
     * workers (0 = exec::defaultJobs()); bitwise identical at every
     * job count.
     */
    std::vector<double> referenceIpcs(
        const std::vector<const BadcoModel *> &models,
        std::size_t jobs = 1) const;

    std::uint32_t cores() const { return cores_; }
    std::uint64_t targetUops() const { return targetUops_; }
    const UncoreConfig &uncoreConfig() const { return uncoreCfg_; }

  private:
    UncoreConfig uncoreCfg_;
    std::uint32_t cores_;
    std::uint64_t targetUops_;
    std::uint64_t seed_;
    std::uint32_t window_;
    std::uint32_t maxOutstanding_;
    std::uint64_t quantum_;
    bool restartThreads_ = true;
};

} // namespace wsel

#endif // WSEL_SIM_MULTICORE_HH

#include "sim/multicore.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "cpu/detailed_core.hh"
#include "exec/scheduler.hh"
#include "badco/badco_machine.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/logging.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace
{

double
elapsedSeconds(std::chrono::steady_clock::time_point t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
}

} // namespace

double
SimResult::mips() const
{
    if (wallSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(instructions) / wallSeconds / 1e6;
}

// -------------------------------------------------------------------
// Detailed simulator
// -------------------------------------------------------------------

DetailedMulticoreSim::DetailedMulticoreSim(
    const CoreConfig &core_cfg, const UncoreConfig &uncore_cfg,
    std::uint32_t cores, std::uint64_t target_uops,
    std::uint64_t seed)
    : coreCfg_(core_cfg), uncoreCfg_(uncore_cfg), cores_(cores),
      targetUops_(target_uops), seed_(seed)
{
    if (cores_ == 0)
        WSEL_FATAL("need at least one core");
    if (targetUops_ == 0)
        WSEL_FATAL("target µop count cannot be zero");
}

SimResult
DetailedMulticoreSim::run(
    const Workload &workload,
    const std::vector<BenchmarkProfile> &suite) const
{
    if (workload.size() != cores_)
        WSEL_FATAL("workload has " << workload.size()
                                   << " threads for " << cores_
                                   << " cores");
    const auto t0 = std::chrono::steady_clock::now();
    obs::Span span("sim.detailed.run");

    Uncore uncore(uncoreCfg_, cores_, seed_);
    std::vector<std::unique_ptr<DetailedCore>> coresv;
    coresv.reserve(cores_);
    for (std::uint32_t k = 0; k < cores_; ++k) {
        const std::uint32_t bench = workload[k];
        if (bench >= suite.size())
            WSEL_FATAL("workload references benchmark " << bench
                       << " outside the suite");
        // Cursors into the shared memoized stream replace the old
        // per-cell-per-core TraceGenerator (docs/PERFORMANCE.md).
        coresv.push_back(std::make_unique<DetailedCore>(
            coreCfg_, TraceStore::global().cursor(suite[bench]),
            uncore, k, targetUops_, seed_ + 0x1000 * (k + 1)));
    }

    std::uint64_t now = 0;
    while (true) {
        bool all_done = true;
        for (auto &c : coresv) {
            c->tick(now);
            all_done = all_done && c->reachedTarget();
        }
        if (all_done)
            break;
        // Skip cycles in which no unfinished core can progress.
        std::uint64_t next = UINT64_MAX;
        for (auto &c : coresv) {
            if (c->reachedTarget())
                continue;
            next = std::min(next, c->nextEventCycle(now));
        }
        now = std::max(now + 1, next == UINT64_MAX ? now + 1 : next);
    }

    SimResult res;
    res.ipc.reserve(cores_);
    res.llcDemandMisses.reserve(cores_);
    for (std::uint32_t k = 0; k < cores_; ++k) {
        res.ipc.push_back(coresv[k]->ipc());
        res.cycles = std::max(res.cycles,
                              coresv[k]->stats().cyclesToTarget);
        res.llcDemandMisses.push_back(
            uncore.coreStats(k).demandMisses);
    }
    res.instructions = static_cast<std::uint64_t>(cores_) *
                       targetUops_;
    res.wallSeconds = elapsedSeconds(t0);
    if (obs::metricsEnabled()) {
        static obs::Counter &cells =
            obs::counter("sim.detailed.cells");
        static obs::LatencyHistogram &cellNs =
            obs::histogram("sim.detailed.cell_ns");
        cells.inc();
        cellNs.recordNs(
            static_cast<std::uint64_t>(res.wallSeconds * 1e9));
    }
    return res;
}

std::vector<double>
DetailedMulticoreSim::referenceIpcs(
    const std::vector<BenchmarkProfile> &suite, std::size_t jobs) const
{
    // The reference machine: the same uncore with the baseline LRU
    // policy, running the benchmark alone.
    UncoreConfig ref_cfg = uncoreCfg_;
    ref_cfg.policy = PolicyKind::LRU;
    std::vector<double> refs(suite.size());
    exec::parallel_for(jobs, std::size_t{0}, suite.size(),
                       [&](std::size_t b) {
        Uncore uncore(ref_cfg, 1, seed_);
        DetailedCore core(coreCfg_,
                          TraceStore::global().cursor(suite[b]),
                          uncore, 0, targetUops_, seed_ + 0x51);
        std::uint64_t now = 0;
        while (!core.reachedTarget()) {
            core.tick(now);
            const std::uint64_t next = core.nextEventCycle(now);
            now = std::max(now + 1,
                           next == UINT64_MAX ? now + 1 : next);
        }
        refs[b] = core.ipc();
    });
    return refs;
}

// -------------------------------------------------------------------
// BADCO simulator
// -------------------------------------------------------------------

BadcoMulticoreSim::BadcoMulticoreSim(const UncoreConfig &uncore_cfg,
                                     std::uint32_t cores,
                                     std::uint64_t target_uops,
                                     std::uint64_t seed,
                                     std::uint32_t window,
                                     std::uint32_t max_outstanding,
                                     std::uint64_t quantum)
    : uncoreCfg_(uncore_cfg), cores_(cores),
      targetUops_(target_uops), seed_(seed), window_(window),
      maxOutstanding_(max_outstanding), quantum_(quantum)
{
    if (cores_ == 0)
        WSEL_FATAL("need at least one core");
    if (targetUops_ == 0)
        WSEL_FATAL("target µop count cannot be zero");
    if (quantum_ == 0)
        WSEL_FATAL("quantum cannot be zero");
}

SimResult
BadcoMulticoreSim::run(
    const Workload &workload,
    const std::vector<const BadcoModel *> &models) const
{
    const auto &b = workload.benchmarks();
    return run(std::span<const std::uint32_t>(b.data(), b.size()),
               models);
}

SimResult
BadcoMulticoreSim::run(
    std::span<const std::uint32_t> benches,
    const std::vector<const BadcoModel *> &models) const
{
    if (benches.size() != cores_)
        WSEL_FATAL("workload has " << benches.size()
                                   << " threads for " << cores_
                                   << " cores");
    const auto t0 = std::chrono::steady_clock::now();
    obs::Span span("sim.badco.run");

    Uncore uncore(uncoreCfg_, cores_, seed_);
    std::vector<std::unique_ptr<BadcoMachine>> machines;
    machines.reserve(cores_);
    for (std::uint32_t k = 0; k < cores_; ++k) {
        const std::uint32_t bench = benches[k];
        if (bench >= models.size() || models[bench] == nullptr)
            WSEL_FATAL("no BADCO model for benchmark " << bench);
        machines.push_back(std::make_unique<BadcoMachine>(
            *models[bench], uncore, k, targetUops_, window_,
            maxOutstanding_));
        machines.back()->stopAtTarget(!restartThreads_);
    }

    // Round-robin quanta with rotating start for fairness. A
    // machine whose clock already passed the quantum boundary
    // would return from run() without stepping (a long stall can
    // overshoot many quanta), so the call is skipped — the uncore
    // request interleaving, and therefore the result, is untouched.
    std::vector<BadcoMachine *> mview;
    mview.reserve(cores_);
    for (const auto &m : machines)
        mview.push_back(m.get());
    std::uint64_t t = 0;
    std::uint32_t first = 0;
    while (true) {
        bool all_done = true;
        for (const BadcoMachine *m : mview)
            all_done = all_done && m->reachedTarget();
        if (all_done)
            break;
        t += quantum_;
        for (std::uint32_t i = 0; i < cores_; ++i) {
            std::uint32_t k = first + i;
            if (k >= cores_)
                k -= cores_;
            BadcoMachine &m = *mview[k];
            if (m.localClock() < t)
                m.run(t);
        }
        first = first + 1 == cores_ ? 0 : first + 1;
    }

    SimResult res;
    res.ipc.reserve(cores_);
    res.llcDemandMisses.reserve(cores_);
    for (std::uint32_t k = 0; k < cores_; ++k) {
        res.ipc.push_back(machines[k]->ipc());
        res.cycles = std::max(res.cycles,
                              machines[k]->stats().cyclesToTarget);
        res.llcDemandMisses.push_back(
            uncore.coreStats(k).demandMisses);
    }
    res.instructions = static_cast<std::uint64_t>(cores_) *
                       targetUops_;
    res.wallSeconds = elapsedSeconds(t0);
    if (obs::metricsEnabled()) {
        static obs::Counter &cells = obs::counter("sim.badco.cells");
        static obs::LatencyHistogram &cellNs =
            obs::histogram("sim.badco.cell_ns");
        cells.inc();
        cellNs.recordNs(
            static_cast<std::uint64_t>(res.wallSeconds * 1e9));
    }
    return res;
}

std::vector<double>
BadcoMulticoreSim::referenceIpcs(
    const std::vector<const BadcoModel *> &models,
    std::size_t jobs) const
{
    for (const BadcoModel *m : models) {
        if (m == nullptr)
            WSEL_FATAL("missing BADCO model");
    }
    UncoreConfig ref_cfg = uncoreCfg_;
    ref_cfg.policy = PolicyKind::LRU;
    std::vector<double> refs(models.size());
    exec::parallel_for(jobs, std::size_t{0}, models.size(),
                       [&](std::size_t b) {
        Uncore uncore(ref_cfg, 1, seed_);
        BadcoMachine machine(*models[b], uncore, 0, targetUops_,
                             window_, maxOutstanding_);
        while (!machine.reachedTarget())
            machine.run(machine.localClock() + quantum_);
        refs[b] = machine.ipc();
    });
    return refs;
}

} // namespace wsel

#include "sim/batch.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "cache/tagscan.hh"
#include "obs/metrics.hh"
#include "stats/logging.hh"

namespace wsel
{

std::uint32_t
resolveBatchCells(std::uint32_t requested)
{
    std::uint64_t b = requested;
    if (b == 0) {
        b = kDefaultBatchCells;
        if (const char *env = std::getenv("WSEL_BATCH_CELLS");
            env && *env) {
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(env, &end, 10);
            if (end != env && *end == '\0' && v > 0) {
                b = v;
            } else {
                warn("ignoring invalid WSEL_BATCH_CELLS '" +
                     std::string(env) + "' (want a positive cell "
                     "count)");
            }
        }
    }
    return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        b, 1, kMaxBatchCells));
}

BadcoBatchRunner::BadcoBatchRunner(
    std::span<const UncoreConfig> ucfgs, std::uint32_t cores,
    std::uint64_t target_uops,
    const std::vector<const BadcoModel *> &models,
    std::uint32_t batch_cells, std::uint32_t window,
    std::uint32_t max_outstanding, std::uint64_t quantum)
    : ucfgs_(ucfgs), cores_(cores), targetUops_(target_uops),
      models_(models),
      batchCells_(std::clamp<std::uint32_t>(batch_cells, 1,
                                            kMaxBatchCells)),
      windowOverride_(window), maxOutstanding_(max_outstanding),
      quantum_(quantum)
{
    if (cores_ == 0)
        WSEL_FATAL("need at least one core");
    if (targetUops_ == 0)
        WSEL_FATAL("target µop count cannot be zero");
    if (quantum_ == 0)
        WSEL_FATAL("quantum cannot be zero");
    if (maxOutstanding_ == 0)
        WSEL_FATAL("degenerate BADCO machine limits");

    const std::size_t lanes =
        static_cast<std::size_t>(batchCells_) * cores_;
    cellSeed_.resize(batchCells_);
    cellPolicy_.resize(batchCells_);
    cellOut_.resize(batchCells_);
    lane_.resize(lanes);
    laneEnv_.resize(lanes);
    loadOff_.resize(lanes);
    outComp_.resize(lanes * maxOutstanding_);
    outMark_.resize(lanes * maxOutstanding_);

    if (obs::metricsEnabled())
        obs::gauge("batch.simd_path")
            .set(static_cast<double>(tagscan::activePath()));
}

void
BadcoBatchRunner::add(std::uint64_t seed, std::uint32_t policy,
                      std::span<const std::uint32_t> benches,
                      double *out_ipc)
{
    if (full())
        run();
    if (benches.size() != cores_)
        WSEL_FATAL("workload has " << benches.size()
                                   << " threads for " << cores_
                                   << " cores");
    if (policy >= ucfgs_.size())
        WSEL_FATAL("cell references policy " << policy
                   << " outside the campaign's " << ucfgs_.size());

    const std::size_t b = cells_;
    // Cells execute one at a time (cell-major run()), so every
    // cell's lanes share the same load-completion arena region —
    // the arena is sized for the largest single cell, not the
    // whole batch.
    std::size_t load_watermark = 0;
    cellSeed_[b] = seed;
    cellPolicy_[b] = policy;
    cellOut_[b] = out_ipc;
    for (std::uint32_t k = 0; k < cores_; ++k) {
        const std::uint32_t bench = benches[k];
        if (bench >= models_.size() || models_[bench] == nullptr)
            WSEL_FATAL("no BADCO model for benchmark " << bench);
        const BadcoModel &model = *models_[bench];
        if (model.traceUops == 0 || model.intrinsicCycles == 0)
            WSEL_FATAL("empty BADCO model for " << model.benchmark);
        if (!model.finalized)
            WSEL_FATAL("BADCO model for " << model.benchmark
                       << " was not finalize()d");
        const std::uint32_t window =
            windowOverride_ == 0 ? model.window : windowOverride_;
        if (window == 0)
            WSEL_FATAL("degenerate BADCO machine limits");
        const std::size_t lane =
            static_cast<std::size_t>(b) * cores_ + k;
        lane_[lane] = badco::LaneState{};
        laneEnv_[lane] = badco::LaneEnv{
            &model, targetUops_, window, maxOutstanding_, k,
            outComp_.data() + lane * maxOutstanding_,
            outMark_.data() + lane * maxOutstanding_, nullptr};
        loadOff_[lane] = load_watermark;
        load_watermark += model.loadCount;
    }
    if (loadComp_.size() < load_watermark)
        loadComp_.resize(load_watermark);
    ++cells_;
}

void
BadcoBatchRunner::run()
{
    if (cells_ == 0)
        return;
    obs::Gauge *lanes_active = nullptr;
    obs::Counter *cells_done = nullptr;
    obs::LatencyHistogram *cell_ns = nullptr;
    if (obs::metricsEnabled()) {
        static obs::Counter &cellsC = obs::counter("batch.cells");
        static obs::Gauge &lanesG =
            obs::gauge("batch.lanes_active");
        static obs::Counter &simCellsC =
            obs::counter("sim.badco.cells");
        static obs::LatencyHistogram &cellNsH =
            obs::histogram("sim.badco.cell_ns");
        cellsC.inc(cells_);
        lanesG.set(static_cast<double>(cells_ * cores_));
        lanes_active = &lanesG;
        cells_done = &simCellsC;
        cell_ns = &cellNsH;
    }

    // Cell-major execution: each cell runs to completion under the
    // rotating-quantum schedule of BadcoMulticoreSim::run before
    // the next cell starts. Cells share nothing, so this ordering
    // is bitwise identical to any cross-cell interleaving — and it
    // keeps one uncore's working set hot instead of cycling B of
    // them through the host cache every quantum.
    for (std::size_t b = 0; b < cells_; ++b) {
        std::chrono::steady_clock::time_point t0;
        if (cell_ns)
            t0 = std::chrono::steady_clock::now();
        uncore_.emplace(ucfgs_[cellPolicy_[b]], cores_,
                        cellSeed_[b]);
        Uncore &unc = *uncore_;
        const std::size_t base = b * cores_;
        std::uint64_t t = 0;
        std::uint32_t first = 0;
        for (;;) {
            bool all_done = true;
            for (std::uint32_t k = 0; k < cores_; ++k)
                all_done =
                    all_done && lane_[base + k].cyclesToTarget != 0;
            if (all_done)
                break;
            t += quantum_;
            for (std::uint32_t i = 0; i < cores_; ++i) {
                std::uint32_t k = first + i;
                if (k >= cores_)
                    k -= cores_;
                const std::size_t lane = base + k;
                if (lane_[lane].clock < t)
                    badco::runLane<false>(lane_[lane], laneEnv(lane),
                                          unc, t);
            }
            first = first + 1 == cores_ ? 0 : first + 1;
        }
        double *out = cellOut_[b];
        for (std::uint32_t k = 0; k < cores_; ++k)
            out[k] = static_cast<double>(targetUops_) /
                     static_cast<double>(
                         lane_[base + k].cyclesToTarget);
        uncore_.reset();
        if (cell_ns) {
            cells_done->inc();
            cell_ns->record(std::chrono::steady_clock::now() - t0);
            lanes_active->set(static_cast<double>(
                (cells_ - b - 1) * cores_));
        }
    }
    cells_ = 0;
}

badco::LaneEnv
BadcoBatchRunner::laneEnv(std::size_t lane)
{
    badco::LaneEnv env = laneEnv_[lane];
    env.loadComp = loadComp_.data() + loadOff_[lane];
    return env;
}

} // namespace wsel

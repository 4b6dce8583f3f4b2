#include "sim/batch.hh"

#include <algorithm>
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

std::uint32_t
resolveBatchWave(std::uint32_t requested)
{
    std::uint64_t w = requested;
    if (w == 0) {
        w = kDefaultBatchWave;
        if (const char *env = std::getenv("WSEL_BATCH_WAVE");
            env && *env) {
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(env, &end, 10);
            if (end != env && *end == '\0' && v > 0) {
                w = v;
            } else {
                warn("ignoring invalid WSEL_BATCH_WAVE '" +
                     std::string(env) + "' (want a positive wave "
                     "width)");
            }
        }
    }
    return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        w, 1, kMaxBatchCells));
}

std::size_t
estimateUncoreFootprint(const UncoreConfig &cfg,
                        std::uint32_t cores)
{
    const std::uint64_t lines =
        cfg.llc.sizeBytes / cfg.llc.lineBytes;
    // Packed tag (4 B) + dirty byte + ~8 B/line of replacement
    // state covers LRU ranks and dueling metadata.
    std::size_t bytes = static_cast<std::size_t>(lines) * 13;
    bytes += 4096 * 16;                            // page table
    bytes += static_cast<std::size_t>(cores) * 512 * 16; // xlate
    bytes += static_cast<std::size_t>(cores) * 4096; // prefetchers
    bytes += 16384; // MSHRs, write buffer, counters, slack
    return bytes;
}

namespace
{

/** WSEL_WAVE_MEM in bytes (MiB knob, default kDefaultWaveMemMib). */
std::uint64_t
waveBudgetBytes()
{
    std::uint64_t mib = kDefaultWaveMemMib;
    if (const char *env = std::getenv("WSEL_WAVE_MEM");
        env && *env) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0' && v > 0) {
            mib = v;
        } else {
            warn("ignoring invalid WSEL_WAVE_MEM '" +
                 std::string(env) + "' (want a positive MiB "
                 "budget)");
        }
    }
    return mib << 20;
}

/**
 * Final wave width: within the batch, and small enough that W
 * resident uncores (worst policy) fit the WSEL_WAVE_MEM budget.
 */
std::uint32_t
clampWave(std::uint32_t wave, std::uint32_t batch_cells,
          std::span<const UncoreConfig> ucfgs, std::uint32_t cores)
{
    wave = std::clamp<std::uint32_t>(wave, 1, kMaxBatchCells);
    wave = std::min(wave, batch_cells);
    if (wave <= 1 || ucfgs.empty())
        return wave;
    std::size_t worst = 1;
    for (const UncoreConfig &cfg : ucfgs)
        worst = std::max(worst, estimateUncoreFootprint(cfg, cores));
    const std::uint64_t allowed = std::max<std::uint64_t>(
        1, waveBudgetBytes() / worst);
    if (allowed < wave) {
        warn("clamping --batch-wave " + std::to_string(wave) +
             " to " + std::to_string(allowed) +
             ": resident uncores (~" +
             std::to_string(worst >> 10) +
             " KiB each) exceed the WSEL_WAVE_MEM budget");
        wave = static_cast<std::uint32_t>(allowed);
    }
    return wave;
}

} // namespace

BadcoBatchRunner::BadcoBatchRunner(
    std::span<const UncoreConfig> ucfgs, std::uint32_t cores,
    std::uint64_t target_uops,
    const std::vector<const BadcoModel *> &models,
    std::uint32_t batch_cells, std::uint32_t wave,
    std::uint32_t window, std::uint32_t max_outstanding,
    std::uint64_t quantum)
    : ucfgs_(ucfgs), cores_(cores), targetUops_(target_uops),
      models_(models),
      batchCells_(std::clamp<std::uint32_t>(batch_cells, 1,
                                            kMaxBatchCells)),
      wave_(clampWave(wave, batchCells_, ucfgs, cores)),
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
    cellLoads_.resize(batchCells_);
    lane_.resize(lanes);
    laneEnv_.resize(lanes);
    loadOff_.resize(lanes);
    outComp_.resize(lanes * maxOutstanding_);
    outMark_.resize(lanes * maxOutstanding_);

    if (wave_ > 1) {
        waveUnc_.reserve(wave_);
        waveT_.reserve(wave_);
        waveFirst_.reserve(wave_);
        waveRot_.reserve(wave_);
        waveDone_.reserve(wave_);
        waveStepping_.reserve(wave_);
        waveParked_.reserve(wave_);
        wavePend_.resize(wave_);
        waveResume_.reserve(wave_);
        wavePendCell_.reserve(wave_);
        waveProbe_.reserve(wave_);
        waveWay_.reserve(wave_);
    }

    if (obs::metricsEnabled()) {
        obs::gauge("batch.simd_path")
            .set(static_cast<double>(tagscan::activePath()));
        obs::gauge("batch.wave").set(static_cast<double>(wave_));
    }
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
    cellLoads_[b] = load_watermark;
    if (loadComp_.size() < load_watermark)
        loadComp_.resize(load_watermark);
    ++cells_;
}

void
BadcoBatchRunner::run()
{
    if (cells_ == 0)
        return;
    const bool metrics = obs::metricsEnabled();
    obs::Gauge *lanes_active = nullptr;
    if (metrics) {
        static obs::Counter &cellsC = obs::counter("batch.cells");
        static obs::Gauge &lanesG =
            obs::gauge("batch.lanes_active");
        cellsC.inc(cells_);
        lanes_active = &lanesG;
        lanesG.set(static_cast<double>(cells_ * cores_));
    }

    // Wavefront mode interleaves cells; a wave of one (or one
    // pending cell) degenerates to cell-major exactly.
    if (wave_ > 1 && cells_ > 1) {
        runWavefront();
        return;
    }

    // Cell-major execution: each cell runs to completion under the
    // rotating-quantum schedule of BadcoMulticoreSim::run before
    // the next cell starts. Cells share nothing, so this ordering
    // is bitwise identical to any cross-cell interleaving — and it
    // keeps one uncore's working set hot instead of cycling B of
    // them through the host cache every quantum.
    for (std::size_t b = 0; b < cells_; ++b) {
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
                    badco::runLane<false, false>(
                        lane_[lane], laneEnv(lane, 0), unc, t);
            }
            first = first + 1 == cores_ ? 0 : first + 1;
        }
        double *out = cellOut_[b];
        for (std::uint32_t k = 0; k < cores_; ++k)
            out[k] = static_cast<double>(targetUops_) /
                     static_cast<double>(
                         lane_[base + k].cyclesToTarget);
        uncore_.reset();
        if (lanes_active)
            lanes_active->set(static_cast<double>(
                (cells_ - b - 1) * cores_));
    }
    cells_ = 0;
}

badco::LaneEnv
BadcoBatchRunner::laneEnv(std::size_t lane, std::size_t load_base)
{
    badco::LaneEnv env = laneEnv_[lane];
    env.loadComp = loadComp_.data() + load_base + loadOff_[lane];
    return env;
}

void
BadcoBatchRunner::runWavefront()
{
    const bool metrics = obs::metricsEnabled();
    obs::Counter *probes_gathered = nullptr;
    obs::Gauge *resident = nullptr;
    obs::Gauge *lanes_active = nullptr;
    if (metrics) {
        static obs::Counter &probesC =
            obs::counter("batch.probes_gathered");
        static obs::Gauge &residentG =
            obs::gauge("batch.uncores_resident");
        static obs::Gauge &lanesG =
            obs::gauge("batch.lanes_active");
        probes_gathered = &probesC;
        resident = &residentG;
        lanes_active = &lanesG;
    }

    // Waves of up to W cells advance in lockstep. Each cell runs
    // its own copy of the cell-major control flow — the all-done
    // check, the quantum advance, the rotating lane schedule — so
    // its uncore sees the exact request sequence cell-major issues;
    // only *between* cells does execution interleave, which the
    // share-nothing contract makes unobservable.
    for (std::size_t g0 = 0; g0 < cells_; g0 += wave_) {
        const std::size_t gn =
            std::min<std::size_t>(wave_, cells_ - g0);
        waveUnc_.clear();
        waveUnc_.resize(gn);
        for (std::size_t c = 0; c < gn; ++c)
            waveUnc_[c].emplace(ucfgs_[cellPolicy_[g0 + c]],
                                cores_, cellSeed_[g0 + c]);
        // Cell-major execution lets every cell reuse one
        // loadComp_ region; resident cells must not — give each
        // wave slot its own stride-sized region.
        waveLoadStride_ = 0;
        for (std::size_t c = 0; c < gn; ++c)
            waveLoadStride_ =
                std::max(waveLoadStride_, cellLoads_[g0 + c]);
        if (loadComp_.size() < gn * waveLoadStride_)
            loadComp_.resize(gn * waveLoadStride_);
        if (resident)
            resident->set(static_cast<double>(gn));
        waveT_.assign(gn, 0);
        waveFirst_.assign(gn, 0);
        waveRot_.assign(gn, 0);
        waveDone_.assign(gn, 0);
        waveStepping_.assign(gn, 0);
        waveParked_.assign(gn, 0);
        waveResume_.assign(gn, UINT32_MAX);

        std::size_t remaining = gn;
        while (remaining > 0) {
            // Quantum head, per cell: the all-done test over the
            // cell's lanes (a branchless count of unfinished lanes)
            // and the t advance of the rotating schedule.
            std::size_t stepping = 0;
            for (std::size_t c = 0; c < gn; ++c) {
                if (waveDone_[c])
                    continue;
                const badco::LaneState *lanes =
                    lane_.data() + (g0 + c) * cores_;
                std::uint32_t live = 0;
                for (std::uint32_t k = 0; k < cores_; ++k)
                    live += lanes[k].cyclesToTarget == 0;
                if (live == 0) {
                    waveDone_[c] = 1;
                    --remaining;
                    continue;
                }
                waveT_[c] += quantum_;
                waveRot_[c] = 0;
                waveStepping_[c] = 1;
                ++stepping;
            }

            // Drive every stepping cell through its quantum. A cell
            // parks when a lane reaches its LLC tag scan; at the end
            // of each sweep all parked probes — one per cell, all
            // against disjoint tag arrays — resolve in one gathered
            // SIMD sweep, and the next sweep resumes them.
            while (stepping > 0) {
                wavePendCell_.clear();
                for (std::size_t c = 0; c < gn; ++c) {
                    if (!waveStepping_[c])
                        continue;
                    const std::size_t base = (g0 + c) * cores_;
                    bool parked = false;
                    while (waveRot_[c] < cores_) {
                        std::uint32_t k =
                            waveFirst_[c] + waveRot_[c];
                        if (k >= cores_)
                            k -= cores_;
                        const std::size_t lane = base + k;
                        if (!waveParked_[c] &&
                            lane_[lane].clock >= waveT_[c]) {
                            ++waveRot_[c];
                            continue;
                        }
                        parked = runLaneWave(c, lane, *waveUnc_[c],
                                             waveT_[c]);
                        if (parked)
                            break;
                        ++waveRot_[c];
                    }
                    if (parked) {
                        wavePendCell_.push_back(
                            static_cast<std::uint32_t>(c));
                    } else {
                        waveStepping_[c] = 0;
                        --stepping;
                        waveFirst_[c] =
                            waveFirst_[c] + 1 == cores_
                                ? 0
                                : waveFirst_[c] + 1;
                    }
                }
                if (!wavePendCell_.empty()) {
                    waveProbe_.clear();
                    waveWay_.resize(wavePendCell_.size());
                    for (const std::uint32_t c : wavePendCell_)
                        waveProbe_.push_back(
                            waveUnc_[c]->llcProbe(wavePend_[c]));
                    tagscan::findMany(waveProbe_.data(),
                                      waveProbe_.size(),
                                      waveWay_.data());
                    if (probes_gathered)
                        probes_gathered->inc(waveProbe_.size());
                    for (std::size_t i = 0;
                         i < wavePendCell_.size(); ++i)
                        waveResume_[wavePendCell_[i]] =
                            waveWay_[i];
                }
            }
        }

        for (std::size_t c = 0; c < gn; ++c) {
            double *out = cellOut_[g0 + c];
            const std::size_t base = (g0 + c) * cores_;
            for (std::uint32_t k = 0; k < cores_; ++k)
                out[k] =
                    static_cast<double>(targetUops_) /
                    static_cast<double>(lane_[base + k].cyclesToTarget);
        }
        waveUnc_.clear();
        if (lanes_active)
            lanes_active->set(static_cast<double>(
                (cells_ - std::min(cells_, g0 + gn)) * cores_));
    }
    if (resident)
        resident->set(0.0);
    cells_ = 0;
}

bool
BadcoBatchRunner::runLaneWave(std::size_t slot, std::size_t lane,
                              Uncore &unc, std::uint64_t until)
{
    waveParked_[slot] = badco::runLane<true, false>(
        lane_[lane], laneEnv(lane, slot * waveLoadStride_), unc, until,
        &wavePend_[slot],
        waveParked_[slot] ? &waveResume_[slot] : nullptr);
    return waveParked_[slot];
}

} // namespace wsel

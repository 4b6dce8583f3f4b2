/**
 * @file
 * Batched BADCO cell execution: B campaign cells per scheduler task.
 *
 * The population/adaptive/hybrid runners used to simulate one
 * (workload, policy) cell at a time — each cell constructing a
 * BadcoMulticoreSim, an Uncore and K heap-allocated BadcoMachines,
 * stepping them to the target, then tearing everything down. This
 * engine keeps that machine state in flat reusable slabs over
 * B x K *lanes* (lane = one core of one cell): per-lane kernel
 * state (badco/badco_step.hh LaneState) and outstanding-miss and
 * load-completion arrays, and a quantum loop advances all K lanes
 * of a cell together through the rotating schedule. Cells execute
 * cell-major by default — each runs to completion before the next
 * starts — because cells share nothing:
 * any cross-cell interleaving is bitwise identical, and cell-major
 * keeps exactly one uncore's working set (tags, page table,
 * prefetcher state) hot in the host cache while peak RSS stays
 * flat in B. What the batch amortizes is setup: one runner's lane
 * slabs, load-completion arena and uncore slot are reused by every
 * cell, the batch's cells share benchmark model node arrays, and
 * the detailed path pins each row's trace chunks once per batch
 * (trace/trace_store.hh BatchPin). Cells own private Uncore
 * instances (the paper's sharing is within a cell, never across
 * cells) stepped through devirtualized calls; the packed 32-bit
 * LLC tag arrays they probe resolve through the runtime-dispatched
 * SWAR/SSE2/AVX2 tag-scan paths (cache/tagscan.hh, WSEL_SIMD).
 *
 * Wavefront mode (--batch-wave / WSEL_BATCH_WAVE) exploits that
 * same share-nothing structure the other way: W cells advance in
 * lockstep, one quantum at a time, with W uncores resident
 * simultaneously. Each cell's lane stepping *parks* at its next
 * LLC access (mem/uncore.hh accessBegin) and the wave driver
 * resolves all parked cells' tag scans in one gathered SIMD sweep
 * (cache/tagscan.hh findMany) before resuming them — the probes
 * touch W disjoint tag arrays, so gathering is free of conflicts
 * by construction, and the per-cell operation order is untouched,
 * so shard artifacts stay byte-for-byte identical at every
 * (wave, batch, jobs) combination, including kill/resume at a
 * different wave size (tests/test_batch.cc). W is clamped so the
 * resident uncore working set fits WSEL_WAVE_MEM (MiB).
 *
 * Determinism contract (docs/PARALLELISM.md): every cell is an
 * independent computation — its own seed (campaignCellSeed keyed by
 * absolute rank), its own uncore, its own lanes — so interleaving
 * cells at quantum granularity cannot change any cell's result.
 * Lanes step through the same kernel as BadcoMachine
 * (badco::runLane), and the quantum loop below follows the
 * BadcoMulticoreSim rotating-quantum schedule, so a batched shard is
 * bitwise identical to the serial engine at every (batch, wave,
 * jobs) combination (tests/test_batch.cc).
 *
 * Batch construction order: callers append cells in row-major
 * (rank, policy) order, which already maximizes shared-benchmark
 * overlap — the np cells of one workload row reference identical
 * benchmark models and are adjacent in the batch, so their model
 * node arrays stay hot across lanes.
 *
 * Knobs: --batch-cells / WSEL_BATCH_CELLS picks B (default 32,
 * 1 disables batching structurally — one cell per run());
 * --batch-wave / WSEL_BATCH_WAVE picks W (default 1 = cell-major);
 * WSEL_WAVE_MEM caps the resident-uncore budget in MiB.
 * Instruments: batch.cells, batch.lanes_active, batch.wave,
 * batch.uncores_resident, batch.probes_gathered,
 * batch.chunk_pins_saved (trace/trace_store.hh BatchPin),
 * batch.simd_path (the resolved tagscan path).
 */

#ifndef WSEL_SIM_BATCH_HH
#define WSEL_SIM_BATCH_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "badco/badco_model.hh"
#include "badco/badco_step.hh"
#include "cache/tagscan.hh"
#include "mem/uncore.hh"
#include "mem/uncore_config.hh"

namespace wsel
{

/** Default cells per batch when WSEL_BATCH_CELLS is unset. */
inline constexpr std::uint32_t kDefaultBatchCells = 32;

/** Upper clamp on cells per batch (bounds lane-slab memory). */
inline constexpr std::uint32_t kMaxBatchCells = 4096;

/** Default wave width when WSEL_BATCH_WAVE is unset: cell-major. */
inline constexpr std::uint32_t kDefaultBatchWave = 1;

/** Resident-uncore budget (MiB) when WSEL_WAVE_MEM is unset. */
inline constexpr std::uint64_t kDefaultWaveMemMib = 256;

/**
 * Resolve the batch size: @p requested when nonzero, else
 * WSEL_BATCH_CELLS, else kDefaultBatchCells; clamped to
 * [1, kMaxBatchCells]. 1 means "serial" (each cell is its own
 * batch); the result is still bitwise identical at any value.
 */
std::uint32_t resolveBatchCells(std::uint32_t requested);

/**
 * Resolve the wave width: @p requested when nonzero, else
 * WSEL_BATCH_WAVE, else kDefaultBatchWave; clamped to
 * [1, kMaxBatchCells]. 1 means cell-major (today's path); the
 * engine additionally clamps so the wave's resident uncores fit
 * the WSEL_WAVE_MEM budget. Bitwise identical at any value.
 */
std::uint32_t resolveBatchWave(std::uint32_t requested);

/**
 * Approximate host bytes one resident Uncore pins while its cell
 * is in flight (LLC tag/dirty/replacement state, page table,
 * translation cache, prefetchers). Used only for the WSEL_WAVE_MEM
 * wave clamp — an estimate, never load-bearing for results.
 */
std::size_t estimateUncoreFootprint(const UncoreConfig &cfg,
                                    std::uint32_t cores);

/**
 * Executes batches of BADCO cells as kernel lanes. One
 * runner is built per shard (or per adaptive row-group) and reused
 * across its batches; add() cells until full() (or done), then
 * run() — results are written straight into each cell's caller
 * buffer. add() on a full runner flushes automatically.
 */
class BadcoBatchRunner
{
  public:
    /**
     * @param ucfgs One UncoreConfig per campaign policy; cells
     *        reference them by index. Caller-owned, must outlive
     *        the runner.
     * @param cores Cores K per cell.
     * @param target_uops Per-thread slice length.
     * @param models One BADCO model per suite benchmark
     *        (caller-owned).
     * @param batch_cells Cells per batch (use resolveBatchCells).
     * @param wave Wave width W (use resolveBatchWave); 1 =
     *        cell-major. Clamped to the batch size and the
     *        WSEL_WAVE_MEM resident-uncore budget.
     * @param window BADCO window override; 0 = per-model
     *        calibrated window (the campaign default).
     * @param max_outstanding Outstanding-load cap per lane.
     * @param quantum Simulation quantum in cycles.
     *
     * The defaults mirror BadcoMulticoreSim's — the identity
     * contract requires both engines to agree on them.
     */
    BadcoBatchRunner(std::span<const UncoreConfig> ucfgs,
                     std::uint32_t cores, std::uint64_t target_uops,
                     const std::vector<const BadcoModel *> &models,
                     std::uint32_t batch_cells,
                     std::uint32_t wave = 1,
                     std::uint32_t window = 0,
                     std::uint32_t max_outstanding = 16,
                     std::uint64_t quantum = 50);

    /**
     * Append one cell. @p benches is copied (callers typically pass
     * a WorkloadCursor span that the next row invalidates);
     * @p out_ipc must point at K doubles that stay valid until the
     * batch containing this cell has run. Flushes first when full.
     *
     * Only the paper's restart protocol (§IV-A, finished threads
     * keep running) is supported — the same protocol every campaign
     * path uses.
     */
    void add(std::uint64_t seed, std::uint32_t policy,
             std::span<const std::uint32_t> benches,
             double *out_ipc);

    /** Cells appended and not yet run. */
    std::size_t pending() const { return cells_; }

    /** True when the next add() would flush. */
    bool full() const { return cells_ >= batchCells_; }

    /** Resolved batch capacity B. */
    std::uint32_t capacity() const { return batchCells_; }

    /** Resolved wave width W after batch and budget clamps. */
    std::uint32_t wave() const { return wave_; }

    /** Run all pending cells to completion and clear the batch. */
    void run();

  private:
    /** The kernel environment of @p lane, its load completions at
     *  @p load_base in the loadComp_ arena. */
    badco::LaneEnv laneEnv(std::size_t lane, std::size_t load_base);

    /**
     * Steps @p lane of wave slot @p slot until it either reaches
     * @p until (returns false) or parks at a load's accessBegin()
     * whose tag scan the wave driver should gather (returns true).
     * On re-entry with waveParked_[slot] set the parked load is
     * finished with waveResume_[slot] first.
     */
    bool runLaneWave(std::size_t slot, std::size_t lane,
                     Uncore &unc, std::uint64_t until);

    /** Wave-interleaved run(): W uncores resident in lockstep. */
    void runWavefront();

    std::span<const UncoreConfig> ucfgs_;
    const std::uint32_t cores_;
    const std::uint64_t targetUops_;
    const std::vector<const BadcoModel *> &models_;
    const std::uint32_t batchCells_;
    const std::uint32_t wave_;
    const std::uint32_t windowOverride_;
    const std::uint32_t maxOutstanding_;
    const std::uint64_t quantum_;

    std::size_t cells_ = 0;

    /** @name Per-cell state, indexed by batch slot [0, cells_). */
    /** @{ */
    /** The running cell's uncore (cell-major: one live at a time). */
    std::optional<Uncore> uncore_;
    std::vector<std::uint64_t> cellSeed_;
    std::vector<std::uint32_t> cellPolicy_;
    std::vector<double *> cellOut_;
    /** Per-cell loadComp_ arena watermark (sum of lane spans). */
    std::vector<std::size_t> cellLoads_;
    /** @} */

    /** @name Per-lane state, lane = cell * cores_ + core. */
    /** @{ */
    std::vector<badco::LaneState> lane_;
    /** Kernel environment minus loadComp, which laneEnv() binds
     *  per call (the arena moves when it grows). */
    std::vector<badco::LaneEnv> laneEnv_;
    /** loadCompletion arena offset of each lane (cell-local:
     *  cell-major execution lets all cells share one region). */
    std::vector<std::size_t> loadOff_;
    /** @} */

    /** @name Slabs (capacity fixed at construction). */
    /** @{ */
    /** Outstanding loads: lane * maxOutstanding_ + j. */
    std::vector<std::uint64_t> outComp_;
    std::vector<std::uint64_t> outMark_;
    /** Per-iteration load completions, packed by loadOff_. */
    std::vector<std::uint64_t> loadComp_;
    /** @} */

    /** @name Wave state, indexed by wave slot [0, group size). */
    /** @{ */
    /** Resident uncores of the in-flight wave group. */
    std::vector<std::optional<Uncore>> waveUnc_;
    /** Per-cell quantum deadline t of the rotating schedule. */
    std::vector<std::uint64_t> waveT_;
    /** Per-cell rotation origin (BadcoMulticoreSim's `first`). */
    std::vector<std::uint32_t> waveFirst_;
    /** Lanes already visited in the current quantum rotation. */
    std::vector<std::uint32_t> waveRot_;
    std::vector<std::uint8_t> waveDone_;
    std::vector<std::uint8_t> waveStepping_;
    /** Cell parked at a load (only loads park: nothing reads the
     *  completion of a store, prefetch or writeback). */
    std::vector<std::uint8_t> waveParked_;
    /** The parked access, valid while waveParked_ is set. */
    std::vector<Uncore::PendingAccess> wavePend_;
    /** Way index handed back to the parked cell by the sweep. */
    std::vector<std::uint32_t> waveResume_;
    /** Gather buffers of one sweep: cells, probes, way results. */
    std::vector<std::uint32_t> wavePendCell_;
    std::vector<tagscan::Probe> waveProbe_;
    std::vector<std::uint32_t> waveWay_;
    /** loadComp_ bytes per wave slot: with W cells resident the
     *  arena can no longer be shared (cell-major lets every cell
     *  reuse region [0, cellLoads_)), so each slot gets its own
     *  stride-sized region for the lifetime of its group. */
    std::size_t waveLoadStride_ = 0;
    /** @} */
};

} // namespace wsel

#endif // WSEL_SIM_BATCH_HH

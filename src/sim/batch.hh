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
 * cell-major — each runs to completion before the next starts —
 * because cells share nothing: any cross-cell interleaving is
 * bitwise identical, and cell-major keeps exactly one uncore's
 * working set (tags, page table, prefetcher state) hot in the host
 * cache while peak RSS stays flat in B. What the batch amortizes is
 * setup: one runner's lane slabs, load-completion arena and uncore
 * slot are reused by every cell, the batch's cells share benchmark
 * model node arrays, and the detailed path pins each row's trace
 * chunks once per batch (trace/trace_store.hh BatchPin). Cells own
 * private Uncore instances (the paper's sharing is within a cell,
 * never across cells) stepped through devirtualized calls; the
 * packed 32-bit LLC tag arrays they probe resolve through the
 * runtime-dispatched SWAR/SSE2/AVX2 tag-scan paths
 * (cache/tagscan.hh, WSEL_SIMD). Cells are deliberately not
 * interleaved: stepping several resident cells in lockstep to
 * gather their tag scans measured slower on full campaigns
 * (docs/PERFORMANCE.md, "Wavefront interleaving (removed)").
 *
 * Determinism contract (docs/PARALLELISM.md): every cell is an
 * independent computation — its own seed (campaignCellSeed keyed by
 * absolute rank), its own uncore, its own lanes. Lanes step through
 * the same kernel as BadcoMachine (badco::runLane), and the quantum
 * loop below follows the BadcoMulticoreSim rotating-quantum
 * schedule, so a batched shard is bitwise identical to the serial
 * engine at every (batch, jobs) combination (tests/test_batch.cc).
 *
 * Batch construction order: callers append cells in row-major
 * (rank, policy) order, which already maximizes shared-benchmark
 * overlap — the np cells of one workload row reference identical
 * benchmark models and are adjacent in the batch, so their model
 * node arrays stay hot across lanes.
 *
 * Knob: --batch-cells / WSEL_BATCH_CELLS picks B (default 32,
 * 1 disables batching structurally — one cell per run()).
 * Instruments: batch.cells, batch.lanes_active,
 * batch.chunk_pins_saved (trace/trace_store.hh BatchPin),
 * batch.simd_path (the resolved tagscan path), and per cell
 * sim.badco.cells / sim.badco.cell_ns.
 */

#ifndef WSEL_SIM_BATCH_HH
#define WSEL_SIM_BATCH_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "badco/badco_model.hh"
#include "badco/badco_step.hh"
#include "mem/uncore.hh"
#include "mem/uncore_config.hh"

namespace wsel
{

/** Default cells per batch when WSEL_BATCH_CELLS is unset. */
inline constexpr std::uint32_t kDefaultBatchCells = 32;

/** Upper clamp on cells per batch (bounds lane-slab memory). */
inline constexpr std::uint32_t kMaxBatchCells = 4096;

/**
 * Resolve the batch size: @p requested when nonzero, else
 * WSEL_BATCH_CELLS, else kDefaultBatchCells; clamped to
 * [1, kMaxBatchCells]. 1 means "serial" (each cell is its own
 * batch); the result is still bitwise identical at any value.
 */
std::uint32_t resolveBatchCells(std::uint32_t requested);

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

    /** Run all pending cells to completion and clear the batch. */
    void run();

  private:
    /** The kernel environment of @p lane. */
    badco::LaneEnv laneEnv(std::size_t lane);

    std::span<const UncoreConfig> ucfgs_;
    const std::uint32_t cores_;
    const std::uint64_t targetUops_;
    const std::vector<const BadcoModel *> &models_;
    const std::uint32_t batchCells_;
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
};

} // namespace wsel

#endif // WSEL_SIM_BATCH_HH

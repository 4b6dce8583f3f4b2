/**
 * @file
 * The BADCO node walk — the one definition of how a BADCO core
 * advances. BadcoMachine (one lane, any UncoreIf) and the batched
 * cell engine (sim/batch.hh: B x K lanes, devirtualized Uncore) both
 * step through runLane() below, so a batched shard is bitwise
 * identical to the serial engine by construction.
 *
 * Timing semantics: nodes execute in order, each consuming its
 * intrinsic weight of core cycles. A node's request issues at the
 * lane's local clock, after waiting for (a) the completion of the
 * load it depends on, (b) the ROB window — the lane cannot run more
 * than `window` µops past an incomplete blocking load — and (c) a
 * free outstanding-request slot (L1 MSHR mirror). At the end of the
 * model the slice tail runs and the thread restarts, like the
 * paper's multiprogram protocol; the halt variant instead idles
 * once the target is reached.
 */

#ifndef WSEL_BADCO_BADCO_STEP_HH
#define WSEL_BADCO_BADCO_STEP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "badco/badco_model.hh"
#include "mem/uncore.hh"
#include "stats/logging.hh"

namespace wsel::badco
{

/** One lane's mutable state: the registers of the step loop. */
struct LaneState
{
    std::uint64_t clock = 0;    ///< local clock in core cycles
    std::uint64_t uops = 0;     ///< µops of progress so far
    std::size_t node = 0;       ///< next node of the walk
    std::uint64_t loadSeq = 0;  ///< loads issued this iteration
    /** Min over the outstanding completions, UINT64_MAX when none:
     *  lets expire() skip the scan while nothing can have completed. */
    std::uint64_t outMin = UINT64_MAX;
    std::uint32_t outCnt = 0;   ///< outstanding loads
    std::uint64_t cyclesToTarget = 0; ///< clock at target; 0 = not yet
    std::uint64_t restarts = 0; ///< walks of the whole model so far
};

/** What a lane steps against: its model, limits and slabs. */
struct LaneEnv
{
    const BadcoModel *model; ///< finalize()d; walked through its SoA
    std::uint64_t targetUops;
    std::uint32_t window;
    std::uint32_t maxOutstanding;
    std::uint32_t core;      ///< core index at the uncore
    /** Outstanding loads in issue order, maxOutstanding entries:
     *  completion cycle and the lane's µop count at issue. */
    std::uint64_t *outComp;
    std::uint64_t *outMark;
    /** Completion of each load of the current iteration,
     *  model->loadCount entries. */
    std::uint64_t *loadComp;
};

/** Drop the outstanding loads complete by the lane's clock (stable
 *  compaction that recomputes the minimum as it goes). */
inline void
expire(LaneState &s, const LaneEnv &e)
{
    if (s.outMin > s.clock)
        return;
    std::uint64_t min = UINT64_MAX;
    std::uint32_t n = 0;
    for (std::uint32_t j = 0; j < s.outCnt; ++j) {
        if (e.outComp[j] > s.clock) {
            e.outComp[n] = e.outComp[j];
            e.outMark[n] = e.outMark[j];
            min = std::min(min, e.outComp[j]);
            ++n;
        }
    }
    s.outCnt = n;
    s.outMin = min;
}

/** Record the target cycle once targetUops µops made progress: the
 *  target µop cannot commit before in-flight older loads complete. */
inline void
checkTarget(LaneState &s, const LaneEnv &e)
{
    if (s.cyclesToTarget != 0 || s.uops < e.targetUops)
        return;
    std::uint64_t t = s.clock;
    for (std::uint32_t j = 0; j < s.outCnt; ++j)
        t = std::max(t, e.outComp[j]);
    s.cyclesToTarget = std::max<std::uint64_t>(t, 1);
}

/** Book a load's completion as outstanding and as this iteration's
 *  next load (what later dependent loads wait for). */
inline void
finishLoad(LaneState &s, const LaneEnv &e, std::uint64_t comp)
{
    e.outComp[s.outCnt] = comp;
    e.outMark[s.outCnt] = s.uops;
    ++s.outCnt;
    s.outMin = std::min(s.outMin, comp);
    WSEL_ASSERT(s.loadSeq < e.model->loadCount,
                "load numbering overflow");
    e.loadComp[s.loadSeq++] = comp;
}

/** Close the current node and advance the walk. */
inline void
finishNode(LaneState &s, const LaneEnv &e)
{
    checkTarget(s, e);
    ++s.node;
}

/**
 * Step one lane node by node until its clock reaches @p until.
 *
 * @tparam kHaltAtTarget Once the target is reached the lane idles
 *         to @p until instead of restarting the thread (the
 *         BadcoMulticoreSim::restartFinishedThreads(false) ablation).
 * @tparam UncoreT Uncore (devirtualized) or UncoreIf (test fakes,
 *         calibration uncores).
 */
template <bool kHaltAtTarget, class UncoreT>
[[gnu::always_inline]] // the batch quantum loop calls it per lane
inline void
runLane(LaneState &lane, const LaneEnv env, UncoreT &unc,
        std::uint64_t until)
{
    // State in locals for the loop; written back once at the end.
    LaneState s = lane;
    const BadcoModel &m = *env.model;
    const std::size_t ncount = m.nodeWeight.size();
    const std::uint32_t *nw = m.nodeWeight.data();
    const std::uint32_t *nu = m.nodeUops.data();
    const std::uint64_t *nv = m.nodeVaddr.data();
    const std::uint64_t *npc = m.nodePc.data();
    const std::uint8_t *nt = m.nodeType.data();
    const std::int64_t *nd = m.nodeDependsOn.data();

    while (s.clock < until) {
        if constexpr (kHaltAtTarget) {
            if (s.cyclesToTarget != 0) {
                s.clock = until;
                break;
            }
        }
        if (s.node >= ncount) {
            // Tail of the slice, then thread restart.
            s.clock += m.tailWeight;
            s.uops += m.tailUops;
            checkTarget(s, env);
            s.node = 0;
            s.loadSeq = 0;
            ++s.restarts;
            continue;
        }
        const std::size_t i = s.node;

        // Intrinsic execution of the node's µops.
        s.clock += nw[i];
        s.uops += nu[i];
        expire(s, env);

        // Window constraint. outMark is non-decreasing in issue
        // order, so once an entry is inside the window every later
        // entry is too — the scan stops there.
        for (std::uint32_t j = 0; j < s.outCnt; ++j) {
            if (s.uops <= env.outMark[j] + env.window)
                break;
            if (env.outComp[j] > s.clock)
                s.clock = env.outComp[j];
        }
        expire(s, env);

        const std::uint64_t vaddr = nv[i];
        const std::uint64_t pc = npc[i];
        switch (static_cast<BadcoReqType>(nt[i])) {
          case BadcoReqType::Load: {
            const std::int64_t depends_on = nd[i];
            if (depends_on >= 0) {
                WSEL_ASSERT(
                    static_cast<std::uint64_t>(depends_on) < s.loadSeq,
                    "forward load dependency in model");
                const std::uint64_t dep_done = env.loadComp[depends_on];
                if (dep_done > s.clock) {
                    s.clock = dep_done;
                    expire(s, env);
                }
            }
            // Outstanding-slot (MSHR) limit: wait for the earliest
            // completion.
            if (s.outCnt >= env.maxOutstanding) {
                if (s.outMin > s.clock)
                    s.clock = s.outMin;
                expire(s, env);
            }
            finishLoad(s, env,
                       unc.access(s.clock, env.core, vaddr, false, pc,
                                  false));
            break;
          }
          case BadcoReqType::Store:
            unc.access(s.clock, env.core, vaddr, true, pc, false);
            break;
          case BadcoReqType::Prefetch:
            unc.access(s.clock, env.core, vaddr, false, pc, true);
            break;
          case BadcoReqType::Writeback:
            unc.writeback(s.clock, env.core, vaddr);
            break;
        }
        finishNode(s, env);
    }
    lane = s;
}

} // namespace wsel::badco

#endif // WSEL_BADCO_BADCO_STEP_HH

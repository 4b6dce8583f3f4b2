/**
 * @file
 * Cycle-level out-of-order core model (the "Zesto" role in the
 * paper's methodology: the slow, detailed reference simulator).
 *
 * The core executes a deterministic µop trace through a modelled
 * pipeline: TAGE-predicted fetch with IL1/ITLB, decode buffer,
 * dispatch into ROB/RS/LDQ/STQ, dependence-driven out-of-order issue
 * with issue-width and RS limits, DL1 with MSHRs and prefetchers,
 * store writes at commit, and in-order commit. All memory requests
 * below the L1s go to a shared UncoreIf.
 */

#ifndef WSEL_CPU_DETAILED_CORE_HH
#define WSEL_CPU_DETAILED_CORE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/prefetcher.hh"
#include "cache/tlb.hh"
#include "cpu/core_config.hh"
#include "cpu/core_observer.hh"
#include "cpu/tage.hh"
#include "mem/uncore.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace test
{
struct DetailedCoreAccess;
} // namespace test

/** Counters exposed by a DetailedCore. */
struct CoreStats
{
    std::uint64_t committed = 0;
    std::uint64_t cyclesToTarget = 0;  ///< cycle the target committed
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t dl1Misses = 0;
    std::uint64_t il1Misses = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t itlbMisses = 0;
    std::uint64_t uncoreLoads = 0;
    std::uint64_t uncoreStores = 0;
    std::uint64_t uncorePrefetches = 0;
    std::uint64_t uncoreWritebacks = 0;

    /** IPC over the first cyclesToTarget cycles. */
    double ipc(std::uint64_t target_uops) const;
};

/**
 * One detailed out-of-order core attached to a shared uncore.
 */
class DetailedCore
{
  public:
    /**
     * @param cfg Core parameters (Table I).
     * @param trace Cursor over the µop stream to execute (from
     *        TraceStore; moved into the core).
     * @param uncore Shared uncore (owned by the caller).
     * @param core_id This core's index at the uncore.
     * @param target_uops Commit count after which IPC is frozen and
     *        the thread restarts (paper Section IV-A).
     * @param seed Determinism seed (predictor allocation, policies).
     */
    DetailedCore(const CoreConfig &cfg, TraceCursor trace,
                 UncoreIf &uncore, std::uint32_t core_id,
                 std::uint64_t target_uops, std::uint64_t seed);

    /** Attach an observer of emitted uncore requests (may be null). */
    void setObserver(CoreObserver *obs) { observer_ = obs; }

    /**
     * Simulate cycle @p now; @p now must increase monotonically.
     * Before the cycle nextEventCycle() names this returns at once:
     * the core cannot change its state there.
     */
    void tick(std::uint64_t now);

    /** True once target_uops µops have committed. */
    bool reachedTarget() const { return stats_.cyclesToTarget != 0; }

    /**
     * The first cycle (> @p now) at which tick() can change this
     * core's state, or UINT64_MAX if none is in sight.  Exact: only
     * the core's own work changes its state (other cores' uncore
     * traffic does not), so a driver of one core may jump to it.
     */
    std::uint64_t nextEventCycle(std::uint64_t now) const;

    /**
     * The multicore driver's step bound (> @p now), a superset of
     * nextEventCycle's events: it also counts every DL1 MSHR,
     * completed or not, and dispatch held back by a full
     * ROB/RS/LDQ/STQ.  A core that reached its target keeps running
     * (paper Section IV-A) but is ticked only on cycles its
     * unfinished siblings step to, so that schedule is part of the
     * simulated result: DetailedMulticoreSim::run keeps it, and
     * nothing else should read this.
     */
    std::uint64_t legacyEventCycle(std::uint64_t now) const;

    const CoreStats &stats() const { return stats_; }
    const CoreConfig &config() const { return cfg_; }
    std::uint32_t coreId() const { return coreId_; }

    /** IPC over the first target_uops committed µops. */
    double ipc() const { return stats_.ipc(targetUops_); }

  private:
    // Tests drive work() on every cycle as the reference tick() must
    // match.
    friend struct test::DetailedCoreAccess;

    struct RobEntry
    {
        std::uint64_t seq = 0;
        OpKind kind = OpKind::IntAlu;
        bool valid = false;
        bool issued = false;
        bool done = false;
        std::uint64_t completion = 0;
        std::uint64_t dep1Seq = kNoDep;
        std::uint64_t dep2Seq = kNoDep;
        std::uint64_t addr = 0;
        std::uint64_t pc = 0;
        std::uint8_t latency = 1;
        bool mispredicted = false;
    };

    struct FetchedUop
    {
        MicroOp uop;
        std::uint64_t seq = 0;
        std::uint64_t readyCycle = 0;
        bool mispredicted = false;
    };

    static constexpr std::uint64_t kNoDep = UINT64_MAX;
    static constexpr std::size_t kDepRing = 256;

    /** One cycle's stages and plan(), without tick()'s gate. */
    void work(std::uint64_t now);
    void retire(std::uint64_t now);
    void issue(std::uint64_t now);
    void dispatch(std::uint64_t now);
    void fetch(std::uint64_t now);
    void plan(std::uint64_t now);
    bool dispatchBlocked(OpKind kind) const;

    RobEntry &entry(std::uint64_t seq);
    const RobEntry &entry(std::uint64_t seq) const;
    bool depReady(std::uint64_t dep_seq, std::uint64_t now) const;
    bool tryExecute(RobEntry &e, std::uint64_t now);
    void executeLoadMiss(RobEntry &e, std::uint64_t now,
                         std::uint64_t start);
    void storeWrite(const RobEntry &e, std::uint64_t now);
    void runDl1Prefetch(std::uint64_t now, std::uint64_t pc,
                        std::uint64_t addr, bool was_miss);
    void issueIl1Prefetches(std::uint64_t now);
    void emitEvent(const UncoreRequestEvent &ev);
    std::int64_t inheritedMissDep(const RobEntry &e) const;

    const CoreConfig cfg_;
    TraceCursor trace_;
    UncoreIf &uncore_;
    const std::uint32_t coreId_;
    const std::uint64_t targetUops_;

    Tage tage_;
    Cache il1_;
    Cache dl1_;
    Tlb itlb_;
    Tlb dtlb_;
    std::unique_ptr<Prefetcher> dl1Prefetcher_;
    std::unique_ptr<Prefetcher> il1Prefetcher_;

    // ROB as a ring indexed by seq % robSize.
    std::vector<RobEntry> rob_;
    std::uint64_t robHeadSeq_ = 0; ///< oldest in-flight seq
    std::uint64_t robTailSeq_ = 0; ///< next seq to dispatch
    std::uint32_t ldqUsed_ = 0;
    std::uint32_t stqUsed_ = 0;

    // RS: seqs dispatched but not yet issued, in age order.
    std::deque<std::uint64_t> rsQueue_;

    std::deque<FetchedUop> fetchBuffer_;
    std::optional<MicroOp> pendingUop_;
    std::uint64_t nextFetchSeq_ = 0;
    std::uint64_t fetchStallUntil_ = 0;
    std::uint64_t stalledBranchSeq_ = kNoDep;
    std::uint64_t curFetchLine_ = UINT64_MAX;

    struct Dl1Mshr
    {
        std::uint64_t lineAddr;
        std::uint64_t completion;
    };
    std::vector<Dl1Mshr> dl1Mshrs_;

    // Most recent blocking uncore request each µop depends on.
    std::vector<std::int64_t> missDepRing_;
    std::int64_t nextRequestIdx_ = 0;

    // Set by plan() after every tick that runs: the next cycle
    // tick() can work (> that tick's cycle), and the raw minimum of
    // legacyEventCycle's events.
    std::uint64_t nextWork_ = 0;
    std::uint64_t legacyEvent_ = UINT64_MAX;

    CoreObserver *observer_ = nullptr;
    CoreStats stats_;
    std::vector<std::uint64_t> prefetchScratch_;
};

} // namespace wsel

#endif // WSEL_CPU_DETAILED_CORE_HH

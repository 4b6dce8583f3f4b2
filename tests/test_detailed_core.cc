/**
 * @file
 * Tests for the detailed out-of-order core model.
 */

#include <gtest/gtest.h>

#include "cpu/detailed_core.hh"
#include "mem/uncore.hh"
#include "stats/logging.hh"
#include "test_util.hh"
#include "trace/trace_store.hh"

namespace wsel
{

TEST(DetailedCore, ReachesTargetAndCountsCommits)
{
    PerfectUncore uncore(6);
    const CoreStats s =
        test::runSingleCore(test::lightProfile(), uncore, 20000);
    // The final tick may commit a few µops past the target (commit
    // width is 4), but never a full extra group.
    EXPECT_GE(s.committed, 20000u);
    EXPECT_LT(s.committed, 20004u);
    EXPECT_GT(s.cyclesToTarget, 0u);
}

TEST(DetailedCore, IpcBoundedByCommitWidth)
{
    PerfectUncore uncore(6);
    const CoreStats s =
        test::runSingleCore(test::lightProfile(), uncore, 20000);
    const double ipc = s.ipc(20000);
    EXPECT_GT(ipc, 0.05);
    EXPECT_LE(ipc, 4.0); // commit width
}

TEST(DetailedCore, DeterministicAcrossRuns)
{
    UncoreConfig cfg = UncoreConfig::forCores(4, PolicyKind::LRU);
    Uncore u1(cfg, 1, 9), u2(cfg, 1, 9);
    const CoreStats a =
        test::runSingleCore(test::heavyProfile(), u1, 15000, 3);
    const CoreStats b =
        test::runSingleCore(test::heavyProfile(), u2, 15000, 3);
    EXPECT_EQ(a.cyclesToTarget, b.cyclesToTarget);
    EXPECT_EQ(a.dl1Misses, b.dl1Misses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

TEST(DetailedCore, IdleSkippingPreservesTiming)
{
    // Driving the core with nextEventCycle() jumps must produce the
    // exact same timing as running every cycle's stages, ungated.
    // The small core makes the cases the next work cycle leaves out
    // common.
    const UncoreConfig ucfg = UncoreConfig::forCores(4, PolicyKind::LRU);
    const std::uint64_t target = 8000;
    for (const CoreConfig &ccfg : {CoreConfig{}, test::smallCore()}) {
        for (const BenchmarkProfile &p :
             {test::heavyProfile(), test::lightProfile()}) {
            Uncore u1(ucfg, 1, 5);
            DetailedCore skip(ccfg, TraceStore::global().cursor(p), u1,
                              0, target, 1);
            std::uint64_t now = 0;
            while (!skip.reachedTarget()) {
                skip.tick(now);
                const std::uint64_t next = skip.nextEventCycle(now);
                ASSERT_NE(next, UINT64_MAX);
                now = std::max(now + 1, next);
            }

            Uncore u2(ucfg, 1, 5);
            DetailedCore step(ccfg, TraceStore::global().cursor(p), u2,
                              0, target, 1);
            for (now = 0; !step.reachedTarget(); ++now)
                test::DetailedCoreAccess::work(step, now);

            const CoreStats &a = skip.stats();
            const CoreStats &b = step.stats();
            EXPECT_EQ(a.cyclesToTarget, b.cyclesToTarget) << p.name;
            EXPECT_EQ(a.committed, b.committed) << p.name;
            EXPECT_EQ(a.branches, b.branches) << p.name;
            EXPECT_EQ(a.branchMispredicts, b.branchMispredicts)
                << p.name;
            EXPECT_EQ(a.dl1Misses, b.dl1Misses) << p.name;
            EXPECT_EQ(a.il1Misses, b.il1Misses) << p.name;
            EXPECT_EQ(a.dtlbMisses, b.dtlbMisses) << p.name;
            EXPECT_EQ(a.itlbMisses, b.itlbMisses) << p.name;
            EXPECT_EQ(a.uncoreLoads, b.uncoreLoads) << p.name;
            EXPECT_EQ(a.uncoreStores, b.uncoreStores) << p.name;
            EXPECT_EQ(a.uncorePrefetches, b.uncorePrefetches) << p.name;
            EXPECT_EQ(a.uncoreWritebacks, b.uncoreWritebacks) << p.name;
            EXPECT_EQ(u1.coreStats(0).demandMisses,
                      u2.coreStats(0).demandMisses)
                << p.name;
        }
    }
}

TEST(DetailedCore, SlowerUncoreMeansMoreCycles)
{
    const BenchmarkProfile p = test::heavyProfile();
    PerfectUncore fast(6), slow(206);
    const CoreStats a = test::runSingleCore(p, fast, 10000);
    const CoreStats b = test::runSingleCore(p, slow, 10000);
    EXPECT_GT(b.cyclesToTarget, a.cyclesToTarget);
}

TEST(DetailedCore, MemoryHeavyProfileMissesMore)
{
    UncoreConfig cfg = UncoreConfig::forCores(4, PolicyKind::LRU);
    Uncore u1(cfg, 1, 1), u2(cfg, 1, 1);
    const CoreStats light =
        test::runSingleCore(test::lightProfile(), u1, 20000);
    const CoreStats heavy =
        test::runSingleCore(test::heavyProfile(), u2, 20000);
    EXPECT_GT(heavy.dl1Misses, light.dl1Misses);
    EXPECT_GT(heavy.uncoreLoads, light.uncoreLoads);
}

TEST(DetailedCore, BranchStatsPopulated)
{
    PerfectUncore uncore(6);
    const CoreStats s =
        test::runSingleCore(test::lightProfile(), uncore, 20000);
    EXPECT_GT(s.branches, 1000u);
    EXPECT_GT(s.branchMispredicts, 0u);
    EXPECT_LT(s.branchMispredicts, s.branches / 2);
}

TEST(DetailedCore, ThreadRestartsAfterTarget)
{
    // Run a core past its target (multiprogram protocol): committed
    // keeps growing, cyclesToTarget freezes.
    const BenchmarkProfile p = test::lightProfile();
    PerfectUncore uncore(6);
    CoreConfig cfg;
    DetailedCore core(cfg, TraceStore::global().cursor(p), uncore,
                      0, 5000, 1);
    std::uint64_t now = 0;
    while (!core.reachedTarget())
        core.tick(now++);
    const std::uint64_t frozen = core.stats().cyclesToTarget;
    const std::uint64_t end = now + 20000;
    while (now < end)
        core.tick(now++);
    EXPECT_EQ(core.stats().cyclesToTarget, frozen);
    EXPECT_GT(core.stats().committed, 5000u);
}

/** Observer-based checks on the emitted uncore request stream. */
class EventCollector : public CoreObserver
{
  public:
    void
    onUncoreRequest(const UncoreRequestEvent &ev) override
    {
        events.push_back(ev);
    }

    std::vector<UncoreRequestEvent> events;
};

TEST(DetailedCore, ObserverSeesConsistentRequestStream)
{
    const BenchmarkProfile p = test::heavyProfile();
    PerfectUncore uncore(6);
    CoreConfig cfg;
    DetailedCore core(cfg, TraceStore::global().cursor(p), uncore,
                      0, 20000, 1);
    EventCollector obs;
    core.setObserver(&obs);
    std::uint64_t now = 0;
    while (!core.reachedTarget()) {
        core.tick(now);
        const std::uint64_t next = core.nextEventCycle(now);
        now = std::max(now + 1, next == UINT64_MAX ? now + 1 : next);
    }

    ASSERT_GT(obs.events.size(), 100u);
    std::int64_t data_loads = 0;
    for (const auto &ev : obs.events) {
        if (ev.isBlockingLoad() && !ev.isInstruction) {
            // Dependencies must reference earlier data loads only.
            EXPECT_LT(ev.dependsOn, data_loads);
            ++data_loads;
        }
        // Writebacks and prefetches never carry dependencies.
        if (ev.isWriteback || ev.isPrefetch) {
            EXPECT_EQ(ev.dependsOn, -1);
        }
    }
    EXPECT_GT(data_loads, 50);
}

TEST(DetailedCore, RejectsZeroTarget)
{
    const BenchmarkProfile p = test::lightProfile();
    PerfectUncore uncore(6);
    CoreConfig cfg;
    EXPECT_THROW(DetailedCore(cfg, TraceStore::global().cursor(p),
                              uncore, 0, 0, 1),
                 FatalError);
}

TEST(CoreConfig, DescribeMentionsTableIShape)
{
    CoreConfig cfg;
    const std::string d = cfg.describe();
    EXPECT_NE(d.find("4/6/4"), std::string::npos);
    EXPECT_NE(d.find("36/36/24/128"), std::string::npos);
}

} // namespace wsel

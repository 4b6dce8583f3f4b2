/**
 * @file
 * Tests for the multiprogram simulators (detailed and BADCO).
 */

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "cpu/detailed_core.hh"
#include "mem/uncore.hh"
#include "sim/model_store.hh"
#include "sim/multicore.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "test_util.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace
{

std::vector<BenchmarkProfile>
testSuite()
{
    std::vector<BenchmarkProfile> s;
    s.push_back(test::lightProfile(7));
    s.push_back(test::heavyProfile(11));
    auto third = test::lightProfile(19);
    third.name = "test-light-2";
    third.hotBytes = 20 * 1024;
    s.push_back(third);
    return s;
}

} // namespace

TEST(DetailedMulticore, RunsTwoCoreWorkload)
{
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    DetailedMulticoreSim sim(CoreConfig{}, ucfg, 2, 10000);
    const SimResult r = sim.run(Workload({0, 1}), suite);
    ASSERT_EQ(r.ipc.size(), 2u);
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.ipc[1], 0.0);
    EXPECT_LE(r.ipc[0], 4.0);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.instructions, 20000u);
    EXPECT_GT(r.wallSeconds, 0.0);
    EXPECT_GT(r.mips(), 0.0);
    ASSERT_EQ(r.llcDemandMisses.size(), 2u);
}

TEST(DetailedMulticore, DeterministicAcrossRuns)
{
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::DRRIP);
    DetailedMulticoreSim sim(CoreConfig{}, ucfg, 2, 8000);
    const SimResult a = sim.run(Workload({0, 1}), suite);
    const SimResult b = sim.run(Workload({0, 1}), suite);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.llcDemandMisses, b.llcDemandMisses);
}

TEST(DetailedMulticore, ContentionSlowsThreadsDown)
{
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    DetailedMulticoreSim sim(CoreConfig{}, ucfg, 2, 10000);
    // Light thread alone (paired with itself) vs paired with the
    // heavy thread: the heavy co-runner must not speed it up.
    const SimResult alone = sim.run(Workload({0, 0}), suite);
    const SimResult shared = sim.run(Workload({0, 1}), suite);
    EXPECT_LE(shared.ipc[0], alone.ipc[0] * 1.05);
}

TEST(DetailedMulticore, ReferenceIpcsAreSingleThreadRuns)
{
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    DetailedMulticoreSim sim(CoreConfig{}, ucfg, 2, 8000);
    const auto refs = sim.referenceIpcs(suite);
    ASSERT_EQ(refs.size(), suite.size());
    for (double r : refs) {
        EXPECT_GT(r, 0.0);
        EXPECT_LE(r, 4.0);
    }
}

TEST(DetailedMulticore, RejectsMismatchedWorkload)
{
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    DetailedMulticoreSim sim(CoreConfig{}, ucfg, 2, 1000);
    EXPECT_THROW(sim.run(Workload({0, 1, 2}), suite), FatalError);
    EXPECT_THROW(sim.run(Workload({0, 9}), suite), FatalError);
}

namespace
{

/** The golden sweep's workload @p j on @p cores cores. */
Workload
goldenWorkload(std::uint32_t cores, std::uint32_t j)
{
    std::vector<std::uint32_t> b(cores);
    for (std::uint32_t c = 0; c < cores; ++c)
        b[c] = (c * (j + 1) + j) % 3;
    return Workload(b);
}

void
digestResult(persist::Fnv1a &h, const SimResult &r)
{
    for (double ipc : r.ipc)
        h.updateU64(std::bit_cast<std::uint64_t>(ipc));
    h.updateU64(r.cycles);
    for (std::uint64_t m : r.llcDemandMisses)
        h.updateU64(m);
}

} // namespace

// The detailed simulator's timing is a contract: every escalated
// cell, calibration point and BADCO model is built from it.  The
// constants were computed by the simulator that stepped its cores
// on every cycle any unfinished core's legacy next-event bound
// named, before idle-cycle skipping became exact.
TEST(DetailedMulticore, GoldenDigestAcrossCoresAndPolicies)
{
    const auto suite = testSuite();
    const std::uint64_t target = 2000;
    persist::Fnv1a runs;
    persist::Fnv1a refs;
    for (std::uint32_t cores : {1u, 2u, 4u, 8u}) {
        for (PolicyKind p : paperPolicies()) {
            const UncoreConfig ucfg = UncoreConfig::forCores(cores, p);
            for (std::uint32_t j = 0; j < 2; ++j) {
                const DetailedMulticoreSim sim(CoreConfig{}, ucfg,
                                               cores, target, 17 + j);
                digestResult(runs,
                             sim.run(goldenWorkload(cores, j), suite));
            }
        }
        const UncoreConfig lru =
            UncoreConfig::forCores(cores, PolicyKind::LRU);
        const DetailedMulticoreSim sim(CoreConfig{}, lru, cores,
                                       target, 5);
        for (double r : sim.referenceIpcs(suite, 2))
            refs.updateU64(std::bit_cast<std::uint64_t>(r));
    }
    EXPECT_EQ(runs.digest(), 0xae30b5322f5db717ULL)
        << std::hex << runs.digest();
    EXPECT_EQ(refs.digest(), 0x34a8d165b44e922cULL)
        << std::hex << refs.digest();
}

TEST(DetailedMulticore, IdleSkippingPreservesTiming)
{
    // run() jumps over the cycles on which no core would work; the
    // result must equal this copy of the driver loop that runs every
    // core's stages, ungated, on every cycle of the unfinished cores'
    // legacy schedule.
    const auto suite = testSuite();
    const std::uint64_t target = 3000;
    const std::uint64_t seed = 9;
    for (const CoreConfig &ccfg : {CoreConfig{}, test::smallCore()}) {
        for (PolicyKind p : {PolicyKind::LRU, PolicyKind::DIP}) {
            const UncoreConfig ucfg = UncoreConfig::forCores(4, p);
            for (const Workload &w : {Workload({0, 1, 2, 1}),
                                      Workload({1, 1, 0, 0}),
                                      Workload({2, 0, 0, 1})}) {
                Uncore uncore(ucfg, 4, seed);
                std::vector<std::unique_ptr<DetailedCore>> cores;
                for (std::uint32_t k = 0; k < 4; ++k)
                    cores.push_back(std::make_unique<DetailedCore>(
                        ccfg,
                        TraceStore::global().cursor(suite[w[k]]),
                        uncore, k, target, seed + 0x1000 * (k + 1)));
                std::uint64_t now = 0;
                while (true) {
                    bool all_done = true;
                    for (auto &c : cores) {
                        test::DetailedCoreAccess::work(*c, now);
                        all_done = all_done && c->reachedTarget();
                    }
                    if (all_done)
                        break;
                    std::uint64_t next = UINT64_MAX;
                    for (auto &c : cores)
                        if (!c->reachedTarget())
                            next = std::min(next,
                                            c->legacyEventCycle(now));
                    now = std::max(now + 1,
                                   next == UINT64_MAX ? now + 1 : next);
                }

                const DetailedMulticoreSim sim(ccfg, ucfg, 4, target,
                                               seed);
                const SimResult r = sim.run(w, suite);
                std::uint64_t cycles = 0;
                for (std::uint32_t k = 0; k < 4; ++k) {
                    EXPECT_EQ(r.ipc[k], cores[k]->ipc()) << k;
                    EXPECT_EQ(r.llcDemandMisses[k],
                              uncore.coreStats(k).demandMisses)
                        << k;
                    cycles = std::max(
                        cycles, cores[k]->stats().cyclesToTarget);
                }
                EXPECT_EQ(r.cycles, cycles);
            }
        }
    }
}

TEST(BadcoMulticore, RunsAndIsDeterministic)
{
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    BadcoModelStore store(CoreConfig{}, 10000, ucfg.llcHitLatency);
    const auto models = store.getSuite(suite);
    BadcoMulticoreSim sim(ucfg, 2, 10000);
    const SimResult a = sim.run(Workload({0, 1}), models);
    const SimResult b = sim.run(Workload({0, 1}), models);
    ASSERT_EQ(a.ipc.size(), 2u);
    EXPECT_GT(a.ipc[0], 0.0);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(BadcoMulticore, TracksDetailedWithinTolerance)
{
    // Single-benchmark CPI agreement between the two simulators
    // (the fig. 2 property, loose bound).
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    const std::uint64_t target = 20000;
    DetailedMulticoreSim det(CoreConfig{}, ucfg, 2, target);
    BadcoModelStore store(CoreConfig{}, target, ucfg.llcHitLatency);
    const auto models = store.getSuite(suite);
    BadcoMulticoreSim bad(ucfg, 2, target);
    for (std::uint32_t b : {0u, 1u}) {
        const SimResult d = det.run(Workload({b, b}), suite);
        const SimResult a = bad.run(Workload({b, b}), models);
        const double cpi_d = 1.0 / d.ipc[0];
        const double cpi_b = 1.0 / a.ipc[0];
        EXPECT_LT(std::abs(cpi_b - cpi_d) / cpi_d, 0.75)
            << "benchmark " << b;
    }
}

TEST(BadcoMulticore, FasterThanDetailed)
{
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    const std::uint64_t target = 30000;
    DetailedMulticoreSim det(CoreConfig{}, ucfg, 2, target);
    BadcoModelStore store(CoreConfig{}, target, ucfg.llcHitLatency);
    const auto models = store.getSuite(suite);
    BadcoMulticoreSim bad(ucfg, 2, target);
    const Workload w({1, 1});
    const SimResult d = det.run(w, suite);
    const SimResult a = bad.run(w, models);
    EXPECT_GT(a.mips(), d.mips());
}

TEST(BadcoMulticore, HaltProtocolFlattersSlowThreads)
{
    // With restart (the paper's protocol) the fast thread keeps
    // thrashing the LLC; halting it early can only help the slow
    // thread's measured IPC.
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    const std::uint64_t target = 15000;
    BadcoModelStore store(CoreConfig{}, target, ucfg.llcHitLatency);
    const auto models = store.getSuite(suite);
    BadcoMulticoreSim restart(ucfg, 2, target);
    BadcoMulticoreSim halt(ucfg, 2, target);
    halt.restartFinishedThreads(false);
    const Workload w({0, 1}); // light + heavy
    const SimResult a = restart.run(w, models);
    const SimResult b = halt.run(w, models);
    // The heavy (slow) thread must not get slower when its
    // co-runner halts early.
    EXPECT_GE(b.ipc[1], a.ipc[1] * 0.999);
}

TEST(BadcoMulticore, MissingModelFatal)
{
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    BadcoMulticoreSim sim(ucfg, 2, 1000);
    std::vector<const BadcoModel *> models = {nullptr, nullptr};
    EXPECT_THROW(sim.run(Workload({0, 1}), models), FatalError);
}

TEST(ModelStore, BuildsOncePerBenchmark)
{
    const auto suite = testSuite();
    BadcoModelStore store(CoreConfig{}, 5000, 5);
    store.get(suite[0]);
    EXPECT_EQ(store.modelsBuilt(), 1u);
    store.get(suite[0]);
    EXPECT_EQ(store.modelsBuilt(), 1u);
    EXPECT_GT(store.buildSeconds(), 0.0);
}

TEST(ModelStore, DiskCacheRoundTrip)
{
    const auto dir = test::scratchPath("wsel_test_store");
    std::filesystem::remove_all(dir);
    const auto suite = testSuite();
    {
        BadcoModelStore store(CoreConfig{}, 4000, 5, dir.string());
        store.get(suite[1]);
        EXPECT_EQ(store.modelsBuilt(), 1u);
    }
    {
        BadcoModelStore store(CoreConfig{}, 4000, 5, dir.string());
        const BadcoModel &m = store.get(suite[1]);
        EXPECT_EQ(store.modelsBuilt(), 0u); // loaded, not rebuilt
        EXPECT_EQ(m.traceUops, 4000u);
    }
    std::filesystem::remove_all(dir);
}

TEST(ModelStore, VanishedCacheDirDoesNotFailTheSuite)
{
    const auto dir = test::scratchPath("wsel_test_store_gone");
    std::filesystem::remove_all(dir);
    const auto suite = testSuite();

    // Removed after construction: saving recreates it.
    BadcoModelStore store(CoreConfig{}, 4000, 5, dir.string());
    std::filesystem::remove_all(dir);
    const auto models = store.getSuite(suite);
    ASSERT_EQ(models.size(), suite.size());
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_FALSE(std::filesystem::is_empty(dir));

    // Replaced by a plain file, it cannot be recreated: the models
    // stay in memory only and the suite still resolves.
    BadcoModelStore blocked(CoreConfig{}, 4000, 5, dir.string());
    std::filesystem::remove_all(dir);
    std::ofstream(dir) << "not a directory";
    const auto again = blocked.getSuite(suite);
    ASSERT_EQ(again.size(), suite.size());
    for (const BadcoModel *m : again) {
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->traceUops, 4000u);
    }
    EXPECT_EQ(blocked.modelsBuilt(), suite.size());
    std::filesystem::remove_all(dir);
}

} // namespace wsel

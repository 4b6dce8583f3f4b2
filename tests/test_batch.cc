/**
 * @file
 * Tests for the batched BADCO cell engine (sim/batch.hh) and its
 * bitwise-identity contract: a batched population shard must equal
 * the serial engine's bytes at every (batch, jobs) combination,
 * through mid-batch kills and resumes at a different batch size,
 * and under trace-store budget pressure that forces chunk eviction
 * and re-pinning. Also covers every single-probe tag-scan path
 * (cache/tagscan.hh) against the scalar reference, and the
 * BatchPin budget semantics: pinned chunks are ineligible eviction
 * victims, and the budget converges as soon as a batch releases
 * its pins.
 */

#include <cstdlib>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/tagscan.hh"
#include "fault_injection.hh"
#include "mem/uncore_config.hh"
#include "obs/metrics.hh"
#include "sim/batch.hh"
#include "sim/campaign.hh"
#include "sim/population.hh"
#include "stats/persist_v3.hh"
#include "test_util.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kUops = 3000;

std::vector<BenchmarkProfile>
testSuite()
{
    std::vector<BenchmarkProfile> s;
    s.push_back(test::lightProfile(7));
    s.push_back(test::heavyProfile(11));
    s.push_back(test::lightProfile(13));
    return s;
}

const std::vector<PolicyKind> kPolicies = {PolicyKind::LRU,
                                           PolicyKind::DIP};

/** Restores the batch-engine knobs to "unset" on scope exit. */
struct BatchEnvGuard
{
    ~BatchEnvGuard()
    {
        unsetenv("WSEL_BATCH_CELLS");
    }
};

// -------------------------------------------------------------------
// resolveBatchCells
// -------------------------------------------------------------------

TEST(ResolveBatchCells, ExplicitRequestWinsAndClamps)
{
    BatchEnvGuard env;
    setenv("WSEL_BATCH_CELLS", "5", 1);
    // A nonzero request ignores the environment entirely.
    EXPECT_EQ(resolveBatchCells(7), 7u);
    EXPECT_EQ(resolveBatchCells(1), 1u);
    EXPECT_EQ(resolveBatchCells(kMaxBatchCells + 1000),
              kMaxBatchCells);
}

TEST(ResolveBatchCells, EnvResolvesWhenUnspecified)
{
    BatchEnvGuard env;
    unsetenv("WSEL_BATCH_CELLS");
    EXPECT_EQ(resolveBatchCells(0), kDefaultBatchCells);
    setenv("WSEL_BATCH_CELLS", "5", 1);
    EXPECT_EQ(resolveBatchCells(0), 5u);
    setenv("WSEL_BATCH_CELLS", "999999", 1);
    EXPECT_EQ(resolveBatchCells(0), kMaxBatchCells);
    // Invalid values fall back to the default (with a warning).
    setenv("WSEL_BATCH_CELLS", "abc", 1);
    EXPECT_EQ(resolveBatchCells(0), kDefaultBatchCells);
    setenv("WSEL_BATCH_CELLS", "0", 1);
    EXPECT_EQ(resolveBatchCells(0), kDefaultBatchCells);
}

// -------------------------------------------------------------------
// Tag-scan paths (cache/tagscan.hh) vs the scalar reference
// -------------------------------------------------------------------

/** Random packed-tag sets plus wanted tags with ~50% hit rate. */
struct TagScanFixture
{
    std::vector<std::uint32_t> tags;
    std::vector<std::uint32_t> want;

    TagScanFixture(std::size_t sets, std::uint32_t ways,
                   std::uint64_t seed)
    {
        std::mt19937_64 rng(seed);
        tags.resize(sets * ways);
        for (auto &t : tags) {
            // Mix of valid tags (low bit set), invalid slots and
            // duplicates, drawn from an alphabet as wide as the set
            // so about half the wanted tags are present.
            const auto v = static_cast<std::uint32_t>(rng() % ways);
            t = (rng() % 4 == 0) ? 0u : ((v << 1) | 1u);
        }
        want.reserve(sets);
        for (std::size_t i = 0; i < sets; ++i) {
            const auto v = static_cast<std::uint32_t>(rng() % ways);
            want.push_back((v << 1) | 1u);
        }
    }
};

TEST(TagScan, AllPathsMatchScalarReference)
{
    // 4/8/16 ways cover the SIMD bodies' full-width chunks and
    // their scalar tails; want == 0 is the fill path's lowest
    // invalid-way search, which every path must also agree on.
    for (std::uint32_t ways : {4u, 8u, 16u}) {
        constexpr std::size_t kSets = 64;
        const TagScanFixture fx(kSets, ways, 0x9e3779b9u + ways);
        std::size_t hits = 0;
        for (std::size_t i = 0; i < kSets; ++i) {
            const std::uint32_t *set = fx.tags.data() + i * ways;
            for (const std::uint32_t want : {fx.want[i], 0u}) {
                const std::uint32_t ref =
                    tagscan::findScalar(set, ways, want);
                hits += want != 0 && ref < ways;
                EXPECT_EQ(tagscan::findSwar(set, ways, want), ref)
                    << "swar ways " << ways << " set " << i;
#if defined(__x86_64__) || defined(_M_X64)
                EXPECT_EQ(tagscan::findSse2(set, ways, want), ref)
                    << "sse2 ways " << ways << " set " << i;
                if (__builtin_cpu_supports("avx2")) {
                    EXPECT_EQ(tagscan::findAvx2(set, ways, want),
                              ref)
                        << "avx2 ways " << ways << " set " << i;
                }
#endif
                EXPECT_EQ(tagscan::find(set, ways, want), ref)
                    << "dispatch ways " << ways << " set " << i;
            }
        }
        // The fixture must exercise both outcomes.
        EXPECT_GT(hits, kSets / 4) << "ways " << ways;
        EXPECT_LT(hits, kSets * 3 / 4) << "ways " << ways;
    }
}

// -------------------------------------------------------------------
// BadcoBatchRunner: direct engine identity
// -------------------------------------------------------------------

/** Shard geometry over the full WorkloadPopulation(3, 4). */
persist::V3Manifest
engineManifest()
{
    persist::V3Manifest m;
    m.fingerprint = 0xbadc0;
    m.simulator = "badco";
    m.cores = 4;
    m.targetUops = kUops;
    m.instructions = 0;
    m.policies = {"LRU", "DIP"};
    m.benchmarks = {"test-light", "test-heavy", "test-light2"};
    m.refIpc = {1.0, 1.0, 1.0};
    m.popBenchmarks = 3;
    m.popCores = 4;
    m.firstRank = 0;
    m.lastRank = 15;
    m.shardRows = 4; // shards of 4, 4, 4, 3 rows
    return m;
}

TEST(BatchEngine, AutoFlushMatchesSerialRunner)
{
    const auto suite = testSuite();
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const auto models = store.getSuite(suite);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : kPolicies)
        ucfgs.push_back(UncoreConfig::forCores(4, p));

    const WorkloadPopulation pop(3, 4);
    constexpr std::size_t kCells = 6;
    std::vector<double> serial(kCells * 4), batched(kCells * 4);

    // Capacity 1: every add() runs one cell (the serial shape).
    BadcoBatchRunner one({ucfgs.data(), ucfgs.size()}, 4, kUops,
                         models, 1);
    // Capacity 2: add() must auto-flush on the third cell.
    BadcoBatchRunner two({ucfgs.data(), ucfgs.size()}, 4, kUops,
                         models, 2);
    EXPECT_EQ(two.capacity(), 2u);

    for (std::size_t i = 0; i < kCells; ++i) {
        const Workload w = pop.unrank(2 * i);
        const std::uint64_t seed = 1000 + 17 * i;
        const auto p = static_cast<std::uint32_t>(i % 2);
        one.add(seed, p, {w.benchmarks().data(), 4},
                serial.data() + i * 4);
        two.add(seed, p, {w.benchmarks().data(), 4},
                batched.data() + i * 4);
        EXPECT_LE(two.pending(), 2u);
    }
    EXPECT_TRUE(two.full());
    one.run();
    two.run();
    EXPECT_EQ(one.pending(), 0u);
    EXPECT_EQ(two.pending(), 0u);

    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_GT(batched[i], 0.0);
        EXPECT_EQ(serial[i], batched[i]) << "lane " << i;
    }
}

TEST(BatchEngine, BatchedShardMatchesSerialBitwise)
{
    const auto suite = testSuite();
    const persist::V3Manifest m = engineManifest();
    const WorkloadPopulation pop(3, 4);
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const auto models = store.getSuite(suite);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : kPolicies)
        ucfgs.push_back(UncoreConfig::forCores(4, p));

    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        std::vector<double> serial;
        simulatePopulationShard(m, pop, ucfgs, models, 1, s,
                                serial);
        ASSERT_FALSE(serial.empty());
        for (std::uint32_t batch : {1u, 3u, 7u, 32u}) {
            std::vector<double> batched;
            simulatePopulationShardBatched(m, pop, ucfgs, models, 1,
                                           s, batch, 0, batched);
            ASSERT_EQ(batched.size(), serial.size());
            for (std::size_t i = 0; i < serial.size(); ++i)
                EXPECT_EQ(serial[i], batched[i])
                    << "shard " << s << " batch " << batch
                    << " lane " << i;
        }
    }
}

// -------------------------------------------------------------------
// Batched population campaigns on disk
// -------------------------------------------------------------------

/** Per-test scratch directory (the PopulationCampaign idiom). */
class BatchCampaign : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_batch").string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        unsetenv("WSEL_JOBS");
        unsetenv("WSEL_BATCH_CELLS");
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    /**
     * 2 policies x the full 4-core population over 3 benchmarks
     * (15 workloads), 8 cells per shard -> 4 shards, run with an
     * explicit batch size.
     */
    PopulationResult
    run(const std::string &out, std::size_t jobs,
        std::uint32_t batch)
    {
        const auto suite = testSuite();
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), 4);
        BadcoModelStore store(CoreConfig{}, kUops, 5);
        PopulationOptions opts;
        opts.jobs = jobs;
        opts.shardCells = 8;
        opts.batchCells = batch;
        return runBadcoPopulationCampaign(pop, kPolicies, kUops,
                                          store, suite, {}, out,
                                          opts);
    }

    std::vector<std::string>
    shardBytes(const std::string &out, std::uint64_t shards)
    {
        std::vector<std::string> bytes;
        for (std::uint64_t s = 0; s < shards; ++s)
            bytes.push_back(
                test::readFile(persist::v3ShardPath(out, s)));
        return bytes;
    }

    std::string dir_;
};

TEST_F(BatchCampaign, ShardsBitwiseIdenticalAcrossBatchAndJobs)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, 1);
    const auto want = shardBytes(ref, rr.manifest.shardCount());
    for (const std::string &b : want)
        ASSERT_FALSE(b.empty());

    for (std::uint32_t batch : {7u, 32u}) {
        for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
            const std::string out =
                path("b" + std::to_string(batch) + "j" +
                     std::to_string(jobs));
            const PopulationResult r = run(out, jobs, batch);
            ASSERT_EQ(r.manifest.shardCount(),
                      rr.manifest.shardCount());
            const auto got =
                shardBytes(out, r.manifest.shardCount());
            for (std::size_t s = 0; s < want.size(); ++s)
                EXPECT_EQ(want[s], got[s])
                    << "shard " << s << " batch " << batch
                    << " jobs " << jobs;
        }
    }
}

TEST_F(BatchCampaign, KillMidBatchResumesToIdenticalArtifact)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref, 1, 32);
    const auto want = shardBytes(ref, rr.manifest.shardCount());

    // With batch 32 > the 8 cells of a shard, the whole shard is
    // one pending batch; killing at the 13th cell overall lands on
    // shard 1's fifth cell — mid-batch, with four cells appended
    // and unflushed. The shard is abandoned unwritten, exactly as
    // a serial mid-shard kill.
    const std::string out = path("v3");
    {
        test::FaultInjector fi("population.cell", 13);
        EXPECT_THROW(run(out, 1, 32), test::InjectedFault);
    }
    EXPECT_FALSE(persist::isV3CampaignDir(out));

    // Resume with a *different* batch size: resume semantics are
    // shard-granular and the payload is batch-invariant.
    const PopulationResult r2 = run(out, 1, 1);
    EXPECT_GE(r2.shardsResumed, 1u);
    EXPECT_LT(r2.cellsSimulated, 15u * kPolicies.size());
    EXPECT_EQ(r2.cellsSimulated + r2.cellsResumed,
              15u * kPolicies.size());
    const auto got = shardBytes(out, r2.manifest.shardCount());
    for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_EQ(want[s], got[s]) << "shard " << s;
    EXPECT_TRUE(persist::isV3CampaignDir(out));
}

TEST_F(BatchCampaign, RecordsPerCellLatencyAndResumedCells)
{
    // The batched engine is the default path: its cells must show
    // up in sim.badco.cells / sim.badco.cell_ns like the serial
    // engine's, a resume pass in population.cells_resumed, and a
    // finished pass as population.progress 1.
    const std::uint64_t cells = 15u * kPolicies.size();
    obs::enableMetrics();
    obs::Counter &sim_cells = obs::counter("sim.badco.cells");
    obs::LatencyHistogram &cell_ns =
        obs::histogram("sim.badco.cell_ns");
    obs::Counter &resumed = obs::counter("population.cells_resumed");
    const std::uint64_t cells0 = sim_cells.value();
    const std::uint64_t ns0 = cell_ns.count();
    const std::uint64_t resumed0 = resumed.value();

    obs::Gauge &progress = obs::gauge("population.progress");
    progress.set(0.0);

    const std::string out = path("v3");
    run(out, 1, 32);
    EXPECT_EQ(sim_cells.value() - cells0, cells);
    EXPECT_EQ(cell_ns.count() - ns0, cells);
    EXPECT_EQ(resumed.value(), resumed0);
    EXPECT_EQ(progress.value(), 1.0);

    progress.set(0.0);
    run(out, 1, 32); // every shard resumed, nothing simulated
    obs::enableMetrics(false);
    EXPECT_EQ(sim_cells.value() - cells0, cells);
    EXPECT_EQ(resumed.value() - resumed0, cells);
    EXPECT_EQ(progress.value(), 1.0); // nothing left to simulate
}

// -------------------------------------------------------------------
// BatchPin vs the trace-store budget
// -------------------------------------------------------------------

TEST(BatchPinBudget, PinnedChunksSurviveTrimUntilRelease)
{
    // 8 chunks of 256 µops each far exceed a 16 KiB budget.
    TraceStore store(16 * 1024, 256);
    const BenchmarkProfile prof = test::lightProfile(7);

    BatchPin pin;
    pin.pin(store, prof, 8 * 256);
    EXPECT_EQ(pin.held(), 8u);
    const std::size_t resident = store.residentBytes();
    EXPECT_GT(resident, store.budgetBytes());

    // Every resident chunk is pinned: eviction must leave the
    // overshoot in place rather than un-charge memory a reader
    // still holds.
    store.trimToBudget();
    EXPECT_EQ(store.residentBytes(), resident);

    // Releasing the pins re-runs eviction; the budget converges
    // immediately.
    pin.release();
    EXPECT_EQ(pin.held(), 0u);
    EXPECT_LE(store.residentBytes(), store.budgetBytes());
    EXPECT_GT(store.evictions(), 0u);
}

TEST(BatchPinBudget, RepeatPinsCoalesce)
{
    TraceStore store(TraceStore::kDefaultBudgetBytes, 256);
    const BenchmarkProfile prof = test::lightProfile(7);

    BatchPin pin;
    pin.pin(store, prof, 4 * 256);
    EXPECT_EQ(pin.held(), 4u);
    EXPECT_EQ(pin.saved(), 0u);

    // A second lane of the batch referencing the same benchmark
    // resolves against the held chunks instead of re-pinning.
    pin.pin(store, prof, 4 * 256);
    EXPECT_EQ(pin.held(), 4u);
    EXPECT_EQ(pin.saved(), 4u);
}

TEST(BatchPinBudget, RepinAfterEvictionRegeneratesIdenticalChunks)
{
    // Budget fits about two 256-µop chunks, so walking the stream
    // evicts chunk 0; re-pinning it must rebuild identical bytes.
    TraceStore store(16 * 1024, 256);
    const BenchmarkProfile prof = test::lightProfile(7);
    const auto stream = store.stream(prof);

    TraceChunk first;
    {
        const auto c0 = stream->chunk(0);
        first = *c0;
    }
    const std::uint64_t builds0 = stream->builds();

    for (std::uint64_t i = 1; i < 8; ++i)
        (void)stream->chunk(i);
    EXPECT_GT(store.evictions(), 0u);

    const auto again = stream->chunk(0);
    EXPECT_GT(stream->builds(), builds0);
    EXPECT_EQ(again->firstUop, first.firstUop);
    EXPECT_EQ(again->count, first.count);
    EXPECT_EQ(again->kind, first.kind);
    EXPECT_EQ(again->addr, first.addr);
    EXPECT_EQ(again->pc, first.pc);
    EXPECT_EQ(again->dep1, first.dep1);
    EXPECT_EQ(again->dep2, first.dep2);
    EXPECT_EQ(again->latency, first.latency);
    EXPECT_EQ(again->taken, first.taken);
}

TEST(BatchPinBudget, TinyBudgetKeepsDetailedShardIdentical)
{
    // The detailed shard pins each row's chunks (BatchPin), so a
    // budget too small for even one benchmark's stream must force
    // evict-and-repin between rows without changing a single bit
    // of the payload.
    persist::V3Manifest m;
    m.fingerprint = 0xde7a11;
    m.simulator = "detailed";
    m.cores = 2;
    m.targetUops = 2000;
    m.instructions = 0;
    m.policies = {"LRU", "DIP"};
    m.benchmarks = {"test-light", "test-heavy"};
    m.refIpc = {1.0, 1.0};
    m.popBenchmarks = 2;
    m.popCores = 2;
    m.firstRank = 0;
    m.lastRank = 3;
    m.shardRows = 3;

    std::vector<BenchmarkProfile> suite;
    suite.push_back(test::lightProfile(7));
    suite.push_back(test::heavyProfile(11));
    const WorkloadPopulation pop(2, 2);
    std::vector<UncoreConfig> ucfgs;
    for (PolicyKind p : kPolicies)
        ucfgs.push_back(UncoreConfig::forCores(2, p));

    // The global store is process state: restore shape and budget
    // whatever happens.
    TraceStore &g = TraceStore::global();
    struct Restore
    {
        TraceStore &g;
        std::size_t budget;
        ~Restore()
        {
            g.clear();
            g.setChunkUops(TraceStore::kDefaultChunkUops);
            g.setBudgetBytes(budget);
        }
    } restore{g, g.budgetBytes()};

    g.clear();
    std::vector<double> plenty;
    simulateDetailedPopulationShard(m, pop, CoreConfig{}, ucfgs,
                                    suite, 1, 0, plenty);
    ASSERT_EQ(plenty.size(), 3u * 2u * 2u);

    g.clear();
    g.setChunkUops(512);
    g.setBudgetBytes(24 * 1024);
    const std::uint64_t ev0 = g.evictions();
    std::vector<double> tight;
    simulateDetailedPopulationShard(m, pop, CoreConfig{}, ucfgs,
                                    suite, 1, 0, tight);
    EXPECT_GT(g.evictions(), ev0);

    ASSERT_EQ(tight.size(), plenty.size());
    for (std::size_t i = 0; i < plenty.size(); ++i)
        EXPECT_EQ(plenty[i], tight[i]) << "lane " << i;
}

} // namespace

} // namespace wsel

/**
 * @file
 * Tests for the population-scale campaign engine: the streamed
 * enumeration primitives (WorkloadCursor, WorkloadSet), the
 * contiguous IpcMatrix, the campaign_v3 shard format, the
 * streaming statistics (Welford cv, mergeable QuantileSketch,
 * Histogram::merge, StreamedWorkloadStrata), and the population
 * runner's resilience contract: serial vs parallel bitwise shard
 * identity (one shard's rows fanned out over the workers included),
 * kill-point resume at shard granularity, and truncated-shard
 * quarantine-and-regenerate.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sampling/sampling.hh"
#include "fault_injection.hh"
#include "obs/metrics.hh"
#include "sim/campaign.hh"
#include "sim/population.hh"
#include "stats/persist_v3.hh"
#include "test_util.hh"

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

std::vector<PopulationPairSpec>
testPairs()
{
    PopulationPairSpec ipct;
    ipct.y = 0;
    ipct.x = 1;
    ipct.metric = ThroughputMetric::IPCT;
    ipct.label = "LRU>DIP";
    PopulationPairSpec wsu = ipct;
    wsu.metric = ThroughputMetric::WSU;
    wsu.label = "LRU>DIP/WSU";
    return {ipct, wsu};
}

// -------------------------------------------------------------------
// Streamed enumeration
// -------------------------------------------------------------------

TEST(WorkloadCursor, MatchesEnumerateAll)
{
    const WorkloadPopulation pop(5, 3);
    const std::vector<Workload> all = pop.enumerateAll();
    WorkloadCursor cur(pop, 0);
    for (std::size_t i = 0; i < all.size(); ++i, cur.next()) {
        ASSERT_FALSE(cur.atEnd());
        EXPECT_EQ(cur.rank(), i);
        const auto span = cur.benchmarks();
        ASSERT_EQ(span.size(), all[i].size());
        for (std::size_t k = 0; k < span.size(); ++k)
            EXPECT_EQ(span[k], all[i][k]) << "rank " << i;
    }
    EXPECT_TRUE(cur.atEnd());
}

TEST(WorkloadCursor, SeeksToArbitraryRank)
{
    const WorkloadPopulation pop(6, 4);
    for (std::uint64_t start : {std::uint64_t{0}, std::uint64_t{17},
                                pop.size() - 1}) {
        WorkloadCursor cur(pop, start);
        EXPECT_EQ(cur.rank(), start);
        const Workload expect = pop.unrank(start);
        const auto got = cur.benchmarks();
        for (std::size_t k = 0; k < expect.size(); ++k)
            EXPECT_EQ(got[k], expect[k]);
    }
}

TEST(WorkloadSet, ModesAgreeElementwise)
{
    const WorkloadPopulation pop(4, 3);
    const WorkloadSet explicit_set(pop.enumerateAll());
    const WorkloadSet range = WorkloadSet::fullPopulation(pop);
    std::vector<std::uint64_t> ranks(pop.size());
    for (std::size_t i = 0; i < ranks.size(); ++i)
        ranks[i] = i;
    const WorkloadSet from_ranks =
        WorkloadSet::fromRanks(pop, ranks);

    EXPECT_EQ(explicit_set.size(), range.size());
    EXPECT_TRUE(explicit_set == range);
    EXPECT_TRUE(range == from_ranks);
    EXPECT_FALSE(range.empty());
    EXPECT_TRUE(range.rankBased());
    EXPECT_TRUE(range.isPopulationRange());
    EXPECT_FALSE(explicit_set.rankBased());

    for (std::size_t i = 0; i < range.size(); ++i)
        EXPECT_EQ(range[i], explicit_set[i]);

    // Sub-range: element i maps to rank first + i.
    const WorkloadSet sub = WorkloadSet::populationRange(pop, 3, 9);
    ASSERT_EQ(sub.size(), 6u);
    for (std::size_t i = 0; i < sub.size(); ++i) {
        EXPECT_EQ(sub.rankAt(i), 3 + i);
        EXPECT_EQ(sub[i], pop.unrank(3 + i));
    }
    EXPECT_FALSE(sub == range);
}

TEST(WorkloadSet, ForEachStreamsInOrder)
{
    const WorkloadPopulation pop(4, 2);
    const WorkloadSet range =
        WorkloadSet::populationRange(pop, 2, 8);
    std::size_t seen = 0;
    range.forEach([&](std::size_t i,
                      std::span<const std::uint32_t> benches) {
        EXPECT_EQ(i, seen);
        const Workload expect = pop.unrank(2 + i);
        ASSERT_EQ(benches.size(), expect.size());
        for (std::size_t k = 0; k < benches.size(); ++k)
            EXPECT_EQ(benches[k], expect[k]);
        ++seen;
    });
    EXPECT_EQ(seen, 6u);
}

TEST(Workload, KeyIntoMatchesKey)
{
    const Workload w(std::vector<std::uint32_t>{0, 3, 3, 17});
    EXPECT_EQ(w.key(), "b0+b3+b3+b17");
    std::string out = "prefix:";
    w.keyInto(out);
    EXPECT_EQ(out, "prefix:b0+b3+b3+b17");
}

// -------------------------------------------------------------------
// IpcMatrix
// -------------------------------------------------------------------

TEST(IpcMatrix, ViewsOverContiguousStorage)
{
    IpcMatrix m;
    EXPECT_TRUE(m.empty());
    m.reshape(2, 3, 2);
    EXPECT_EQ(m.policies(), 2u);
    EXPECT_EQ(m.workloadCount(), 3u);
    EXPECT_EQ(m.coresPerCell(), 2u);
    EXPECT_EQ(m.size(), 2u);

    const std::vector<double> cell = {1.5, 2.5};
    m.setCell(1, 2, {cell.data(), cell.size()});
    EXPECT_EQ(m[1][2][0], 1.5);
    EXPECT_EQ(m[1][2][1], 2.5);
    EXPECT_EQ(m.cell(1, 2)[1], 2.5);
    EXPECT_EQ(m[0][0][0], 0.0); // reshape zero-fills

    // CellView compares against vectors.
    EXPECT_TRUE(m[1][2] == cell);

    IpcMatrix n;
    n.reshape(2, 3, 2);
    EXPECT_FALSE(m == n);
    n.setCell(1, 2, {cell.data(), cell.size()});
    EXPECT_TRUE(m == n);

    // Policy-major contiguous layout: cell (p, w) sits at
    // (p * workloads + w) * cores.
    EXPECT_EQ(m.data()[(1 * 3 + 2) * 2 + 1], 2.5);
}

// -------------------------------------------------------------------
// Streaming statistics primitives
// -------------------------------------------------------------------

TEST(QuantileSketch, ExactWhenPopulationFits)
{
    QuantileSketch s(64);
    for (std::uint64_t i = 0; i < 21; ++i)
        s.add(i, static_cast<double>(20 - i));
    EXPECT_EQ(s.sampleSize(), 21u);
    EXPECT_EQ(s.population(), 21u);
    EXPECT_EQ(s.quantile(0.0), 0.0);
    EXPECT_EQ(s.quantile(0.5), 10.0);
    EXPECT_EQ(s.quantile(1.0), 20.0);
    const auto v = s.sortedValues();
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(v[i], static_cast<double>(i));
}

TEST(QuantileSketch, MergeIsOrderIndependent)
{
    // The kept subset is a pure function of the key hashes, so any
    // insertion partition (and any merge order) yields the same
    // sketch.
    QuantileSketch whole(16);
    QuantileSketch left(16), right(16);
    for (std::uint64_t i = 0; i < 200; ++i) {
        const double v = std::sin(static_cast<double>(i));
        whole.add(i, v);
        (i % 2 == 0 ? left : right).add(i, v);
    }
    QuantileSketch lr = left;
    lr.merge(right);
    QuantileSketch rl = right;
    rl.merge(left);
    EXPECT_EQ(lr.sortedValues(), whole.sortedValues());
    EXPECT_EQ(rl.sortedValues(), whole.sortedValues());
    EXPECT_EQ(lr.population(), 200u);
}

TEST(Histogram, MergeMatchesCombinedAdds)
{
    Histogram a(-1.0, 1.0, 8), b(-1.0, 1.0, 8), all(-1.0, 1.0, 8);
    for (int i = 0; i < 50; ++i) {
        const double v = -1.2 + 0.05 * i; // includes clamped values
        (i % 3 == 0 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    ASSERT_EQ(a.count(), all.count());
    for (std::size_t i = 0; i < all.bins(); ++i)
        EXPECT_EQ(a.binCount(i), all.binCount(i)) << "bin " << i;

    Histogram other(-1.0, 1.0, 4);
    EXPECT_THROW(a.merge(other), FatalError);
}

TEST(StreamedWorkloadStrata, MatchesExactWhenSketchKeepsAll)
{
    // Tie-free d values; capacity >= N makes the sketch exact, so
    // the streamed boundaries reproduce the exact §VI-B2 strata.
    std::vector<double> d(120);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = std::sin(static_cast<double>(i) * 0.7) +
               1e-6 * static_cast<double>(i);

    WorkloadStrataConfig cfg;
    cfg.wt = 10;
    cfg.tsd = 0.05;

    QuantileSketch sketch(256);
    for (std::size_t i = 0; i < d.size(); ++i)
        sketch.add(i, d[i]);

    StreamedWorkloadStrata strata(sketch, d.size(), cfg);
    for (std::size_t i = 0; i < d.size(); ++i)
        strata.add(i, d[i]);
    EXPECT_EQ(strata.population(), d.size());

    const std::size_t exact = countWorkloadStrata(d, cfg);
    EXPECT_EQ(strata.strataCount(), exact);

    const auto sampler = strata.build();
    EXPECT_EQ(sampler->name(), "workload-strata");
    Rng rng(1);
    const Sample s = sampler->draw(30, rng);
    EXPECT_EQ(s.totalSize(), 30u);
    // Weights must cover the full population exactly once.
    double weight = 0.0;
    for (const auto &st : s.strata)
        weight += st.weight;
    EXPECT_LE(weight, static_cast<double>(d.size()) + 1e-9);
}

TEST(Sampler, DrawIntoMatchesDraw)
{
    std::vector<double> d(80);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = std::cos(static_cast<double>(i) * 1.3);
    WorkloadStrataConfig cfg;
    cfg.wt = 8;
    cfg.tsd = 0.05;
    const auto strat = makeWorkloadStratifiedSampler(d, cfg);
    const auto rnd = makeRandomSampler(d.size());

    for (const Sampler *s : {strat.get(), rnd.get()}) {
        Rng a(42), b(42);
        Sample reused;
        for (int i = 0; i < 5; ++i) {
            const Sample fresh = s->draw(12, a);
            s->drawInto(reused, 12, b);
            ASSERT_EQ(fresh.strata.size(), reused.strata.size());
            for (std::size_t h = 0; h < fresh.strata.size(); ++h) {
                EXPECT_EQ(fresh.strata[h].weight,
                          reused.strata[h].weight);
                EXPECT_EQ(fresh.strata[h].indices,
                          reused.strata[h].indices);
            }
        }
    }
}

TEST(Sample, FlattenIntoReusesBuffer)
{
    Sample s;
    s.strata.resize(2);
    s.strata[0].indices = {4, 1};
    s.strata[1].indices = {9};
    std::vector<std::size_t> out = {99, 99, 99, 99, 99};
    s.flattenInto(out);
    EXPECT_EQ(out, (std::vector<std::size_t>{4, 1, 9}));
    EXPECT_EQ(out, s.flatten());
}

// -------------------------------------------------------------------
// Population campaign runner
// -------------------------------------------------------------------

/** Per-test scratch directory; dir-less model store (no caches). */
class PopulationCampaign : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_population").string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        unsetenv("WSEL_JOBS");
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
     * The standard run of these tests: 2 policies x the full
     * 4-core population over a 3-benchmark suite (15 workloads),
     * 8 cells per shard (4 rows -> 4 shards) unless @p shard_cells
     * says otherwise.
     */
    PopulationResult
    run(const std::string &out, std::size_t jobs = 1,
        bool resume = true, std::size_t shard_cells = 8)
    {
        const auto suite = testSuite();
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), 4);
        BadcoModelStore store(CoreConfig{}, kUops, 5);
        PopulationOptions opts;
        opts.jobs = jobs;
        opts.shardCells = shard_cells;
        opts.resume = resume;
        return runBadcoPopulationCampaign(pop, kPolicies, kUops,
                                          store, suite, testPairs(),
                                          out, opts);
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

TEST_F(PopulationCampaign, RoundTripMatchesInMemoryCampaign)
{
    const std::string out = path("v3");
    const PopulationResult r = run(out);
    EXPECT_EQ(r.cellsSimulated, 15u * kPolicies.size());
    EXPECT_EQ(r.cellsResumed, 0u);
    EXPECT_EQ(r.shardsWritten, 4u);
    EXPECT_TRUE(persist::isV3CampaignDir(out));

    // The in-memory campaign over the same population: identical
    // per-cell seeds (absolute ranks), so identical numbers.
    const auto suite = testSuite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), 4);
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const Campaign mem = runBadcoCampaign(
        WorkloadSet::fullPopulation(pop), kPolicies, 4, kUops,
        store, suite, {});

    const Campaign loaded = Campaign::load(out);
    EXPECT_EQ(loaded.fingerprint, mem.fingerprint);
    EXPECT_EQ(loaded.simulator, "badco");
    EXPECT_EQ(loaded.cores, 4u);
    EXPECT_EQ(loaded.policies, mem.policies);
    EXPECT_EQ(loaded.benchmarks, mem.benchmarks);
    EXPECT_EQ(loaded.refIpc, mem.refIpc);
    EXPECT_TRUE(loaded.workloads == mem.workloads);
    EXPECT_TRUE(loaded.ipc == mem.ipc);
}

TEST_F(PopulationCampaign, StreamedCvMatchesTwoPass)
{
    const std::string out = path("v3");
    const PopulationResult r = run(out);
    const Campaign c = Campaign::load(out);

    for (const PopulationPairSummary &p : r.pairs) {
        const auto tx =
            c.perWorkloadThroughputs(p.spec.x, p.spec.metric);
        const auto ty =
            c.perWorkloadThroughputs(p.spec.y, p.spec.metric);
        ASSERT_EQ(tx.size(), 15u);
        std::vector<double> d(tx.size());
        for (std::size_t i = 0; i < tx.size(); ++i)
            d[i] = perWorkloadDifference(p.spec.metric, tx[i],
                                         ty[i]);
        double mean = 0.0;
        for (double v : d)
            mean += v;
        mean /= static_cast<double>(d.size());
        double var = 0.0;
        for (double v : d)
            var += (v - mean) * (v - mean);
        var /= static_cast<double>(d.size());
        const double sigma = std::sqrt(var);

        EXPECT_EQ(p.d.count(), d.size());
        EXPECT_NEAR(p.d.mean(), mean, 1e-12) << p.spec.label;
        EXPECT_NEAR(p.d.stddevPopulation(), sigma, 1e-12)
            << p.spec.label;
        if (mean != 0.0) {
            // cv is signed: sigma / mean (the sign carries the
            // pair orientation, as in DifferenceStats).
            EXPECT_NEAR(p.cv(), sigma / mean,
                        1e-9 * std::abs(p.cv()) + 1e-12)
                << p.spec.label;
        }
        // The sketch kept every d (capacity >> 30 cells).
        EXPECT_EQ(p.sketch.sampleSize(), d.size());
    }
}

TEST_F(PopulationCampaign, SerialAndParallelShardsBitwiseIdentical)
{
    const std::string serial = path("serial");
    const std::string parallel = path("parallel");
    const PopulationResult rs = run(serial, 1);
    const PopulationResult rp = run(parallel, 8);
    ASSERT_EQ(rs.manifest.shardCount(), rp.manifest.shardCount());
    const auto sb = shardBytes(serial, rs.manifest.shardCount());
    const auto pb = shardBytes(parallel, rp.manifest.shardCount());
    for (std::size_t s = 0; s < sb.size(); ++s) {
        EXPECT_FALSE(sb[s].empty());
        EXPECT_EQ(sb[s], pb[s]) << "shard " << s;
    }
    // Streamed statistics merged in shard order: identical too.
    for (std::size_t i = 0; i < rs.pairs.size(); ++i) {
        EXPECT_EQ(rs.pairs[i].d.mean(), rp.pairs[i].d.mean());
        EXPECT_EQ(rs.pairs[i].d.stddevPopulation(),
                  rp.pairs[i].d.stddevPopulation());
    }
}

TEST_F(PopulationCampaign, KillMidRunResumesToIdenticalArtifact)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref);
    const auto want = shardBytes(ref, rr.manifest.shardCount());

    const std::string out = path("v3");
    {
        // Kill the second shard write before its atomic rename:
        // shard 0 is committed, shard 1 is lost mid-write.
        test::FaultInjector fi("atomic.before-rename", 2);
        EXPECT_THROW(run(out), test::InjectedFault);
    }
    EXPECT_FALSE(persist::isV3CampaignDir(out)); // no manifest yet

    const PopulationResult r2 = run(out); // resume
    EXPECT_GE(r2.shardsResumed, 1u);
    EXPECT_LT(r2.cellsSimulated, 15u * kPolicies.size());
    EXPECT_EQ(r2.cellsSimulated + r2.cellsResumed,
              15u * kPolicies.size());
    const auto got = shardBytes(out, r2.manifest.shardCount());
    for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_EQ(want[s], got[s]) << "shard " << s;
    EXPECT_TRUE(persist::isV3CampaignDir(out));
}

TEST_F(PopulationCampaign, OneShardFansOutAcrossJobs)
{
    // The default shard size holds all 15 rows: one shard, whose
    // rows are the scheduler's units.
    constexpr std::size_t kOneShard = 64 * 1024;
    const std::string serial = path("serial");
    const std::string parallel = path("parallel");
    const PopulationResult rs = run(serial, 1, true, kOneShard);
    ASSERT_EQ(rs.manifest.shardCount(), 1u);

    obs::enableMetrics();
    obs::Counter &tasks = obs::counter("scheduler.tasks_run");
    const std::uint64_t tasks0 = tasks.value();
    const PopulationResult rp = run(parallel, 4, true, kOneShard);
    const std::uint64_t ran = tasks.value() - tasks0;
    obs::enableMetrics(false);

    ASSERT_EQ(rp.manifest.shardCount(), 1u);
    EXPECT_GE(ran, rp.manifest.rows());
    EXPECT_EQ(rp.cellsSimulated, 15u * kPolicies.size());
    EXPECT_EQ(shardBytes(serial, 1), shardBytes(parallel, 1));
    EXPECT_EQ(rs.manifest.refIpc, rp.manifest.refIpc);
    for (std::size_t i = 0; i < rs.pairs.size(); ++i) {
        EXPECT_EQ(rs.pairs[i].d.mean(), rp.pairs[i].d.mean());
        EXPECT_EQ(rs.pairs[i].d.stddevPopulation(),
                  rp.pairs[i].d.stddevPopulation());
    }
}

TEST_F(PopulationCampaign, KillMidShardAtJobs4ResumesAtJobs1)
{
    const std::string ref = path("ref");
    const PopulationResult rr = run(ref);
    const auto want = shardBytes(ref, rr.manifest.shardCount());

    // The 13th cell lands mid-way through shard 1 or 2, whichever
    // rows the four workers had claimed: the rows already running
    // finish, the rest are never claimed, and no partial shard is
    // written.
    const std::string out = path("v3");
    {
        test::FaultInjector fi("population.cell", 13);
        EXPECT_THROW(run(out, 4), test::InjectedFault);
    }
    EXPECT_FALSE(persist::isV3CampaignDir(out));
    // Whatever the killed run committed is already final.
    for (std::uint64_t s = 0; s < want.size(); ++s) {
        const std::string f = persist::v3ShardPath(out, s);
        if (fs::exists(f)) {
            EXPECT_EQ(test::readFile(f), want[s]) << "shard " << s;
        }
    }

    const PopulationResult r2 = run(out, 1); // resume serially
    EXPECT_EQ(r2.cellsSimulated + r2.cellsResumed,
              15u * kPolicies.size());
    EXPECT_EQ(shardBytes(out, r2.manifest.shardCount()), want);
    for (std::size_t i = 0; i < rr.pairs.size(); ++i) {
        EXPECT_EQ(rr.pairs[i].d.mean(), r2.pairs[i].d.mean());
        EXPECT_EQ(rr.pairs[i].d.stddevPopulation(),
                  r2.pairs[i].d.stddevPopulation());
    }
    EXPECT_TRUE(persist::isV3CampaignDir(out));
}

TEST_F(PopulationCampaign, TruncatedShardQuarantinedAndRegenerated)
{
    const std::string out = path("v3");
    const PopulationResult r1 = run(out);
    const auto want = shardBytes(out, r1.manifest.shardCount());

    const std::string victim = persist::v3ShardPath(out, 1);
    test::truncateFile(victim, test::fileSize(victim) / 2);

    const PopulationResult r2 = run(out);
    EXPECT_EQ(r2.shardsResumed, r1.manifest.shardCount() - 1);
    EXPECT_EQ(r2.cellsSimulated,
              r2.manifest.rowsInShard(1) * kPolicies.size());
    EXPECT_TRUE(fs::exists(victim + ".corrupt"));
    const auto got = shardBytes(out, r2.manifest.shardCount());
    for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_EQ(want[s], got[s]) << "shard " << s;
}

TEST_F(PopulationCampaign, ResumingCompleteRunSimulatesNothing)
{
    const std::string out = path("v3");
    const PopulationResult r1 = run(out);
    const PopulationResult r2 = run(out);
    EXPECT_EQ(r2.cellsSimulated, 0u);
    EXPECT_EQ(r2.cellsResumed, 15u * kPolicies.size());
    EXPECT_EQ(r2.shardsWritten, 0u);
    EXPECT_EQ(r2.shardsResumed, r1.manifest.shardCount());
    // Statistics recomputed from the shards: identical.
    for (std::size_t i = 0; i < r1.pairs.size(); ++i) {
        EXPECT_EQ(r1.pairs[i].d.mean(), r2.pairs[i].d.mean());
        EXPECT_EQ(r1.pairs[i].d.stddevPopulation(),
                  r2.pairs[i].d.stddevPopulation());
    }
}

TEST_F(PopulationCampaign, RankRangeUsesAbsoluteRankSeeds)
{
    // A [5, 13) range campaign must produce the same cells as the
    // corresponding rows of the full-population campaign: per-cell
    // seeds are derived from absolute ranks, not window offsets.
    const std::string full = path("full");
    const PopulationResult rf = run(full);
    const Campaign cf = Campaign::load(full);

    const auto suite = testSuite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), 4);
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    PopulationOptions opts;
    opts.shardCells = 8;
    opts.firstRank = 5;
    opts.lastRank = 13;
    const std::string part = path("part");
    const PopulationResult rp = runBadcoPopulationCampaign(
        pop, kPolicies, kUops, store, suite, testPairs(), part,
        opts);
    EXPECT_EQ(rp.cellsSimulated, 8u * kPolicies.size());

    const Campaign cp = Campaign::load(part);
    ASSERT_EQ(cp.workloads.size(), 8u);
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        for (std::size_t w = 0; w < 8; ++w) {
            EXPECT_TRUE(cp.ipc[p][w] == cf.ipc[p][5 + w])
                << "cell (" << p << "," << w << ")";
        }
    }
    (void)rf;
}

TEST_F(PopulationCampaign, LoadRejectsDamagedManifest)
{
    const std::string out = path("v3");
    run(out);
    const std::string manifest = persist::v3ManifestPath(out);
    test::flipBit(manifest, test::fileSize(manifest) / 2);
    EXPECT_THROW(Campaign::load(out), FatalError);
}

} // namespace

} // namespace wsel

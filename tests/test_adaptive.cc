/**
 * @file
 * Tests for the adaptive sampling engine (docs/SAMPLING.md): the
 * sequential stopping controller and its deterministic schedule,
 * ranked-set sampling and repeated subsampling, the adaptive
 * artifact format, the over-sized-draw clamps in the sampling
 * layer, and the sequential campaign runner's determinism
 * contract: serial vs parallel bitwise identity and kill-point
 * resume (mid-batch and at a batch boundary) replaying to the
 * identical artifact and stopping decision.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive/adaptive.hh"
#include "core/adaptive/controller.hh"
#include "core/confidence/confidence.hh"
#include "core/sampling/sampling.hh"
#include "fault_injection.hh"
#include "sim/adaptive.hh"
#include "sim/campaign.hh"
#include "stats/persist_adaptive.hh"
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

RunningStats
noisyBatch(double mean, double spread, std::size_t n,
           std::uint64_t seed)
{
    Rng rng(seed);
    RunningStats s;
    for (std::size_t i = 0; i < n; ++i)
        s.add(mean + spread * (rng.nextDouble() - 0.5));
    return s;
}

/**
 * A batch with no winner: antithetic pairs (v, -v) keep the sample
 * mean at zero, so eq. 5 confidence stays pinned near 0.5 no
 * matter how many workloads accumulate.
 */
RunningStats
symmetricBatch(double spread, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    RunningStats s;
    for (std::size_t i = 0; i < n / 2; ++i) {
        const double v = spread * (rng.nextDouble() + 0.1);
        s.add(v);
        s.add(-v);
    }
    return s;
}

// -------------------------------------------------------------------
// SequentialController
// -------------------------------------------------------------------

TEST(AdaptiveController, StopsAtTargetAfterMinWorkloads)
{
    SequentialConfig cfg;
    cfg.targetConfidence = 0.977;
    cfg.minWorkloads = 8;
    SequentialController ctl(cfg, 1000);

    // A consistent positive d: confidence rises with n and must
    // not stop before minWorkloads even if already confident.
    const auto d1 = ctl.observeBatch(noisyBatch(1.0, 0.1, 4, 1));
    EXPECT_FALSE(d1.stop());
    EXPECT_EQ(d1.workloads, 4u);

    const auto d2 = ctl.observeBatch(noisyBatch(1.0, 0.1, 4, 2));
    EXPECT_TRUE(d2.stop());
    EXPECT_EQ(d2.reason, StopReason::TargetReached);
    EXPECT_TRUE(d2.yWins);
    EXPECT_GE(d2.confidence, 0.977);
    EXPECT_EQ(d2.workloads, 8u);
}

TEST(AdaptiveController, DetectsXLeading)
{
    SequentialConfig cfg;
    cfg.minWorkloads = 4;
    SequentialController ctl(cfg, 1000);
    const auto d = ctl.observeBatch(noisyBatch(-1.0, 0.1, 8, 3));
    EXPECT_TRUE(d.stop());
    EXPECT_FALSE(d.yWins);
    EXPECT_GE(d.confidence, 0.977);
}

TEST(AdaptiveController, BudgetExhaustedOnNoisyData)
{
    SequentialConfig cfg;
    cfg.minWorkloads = 2;
    cfg.maxWorkloads = 12;
    SequentialController ctl(cfg, 1000);
    // Mean ~0: confidence hugs 0.5 and the budget runs out.
    for (int i = 0; i < 2; ++i)
        ctl.observeBatch(symmetricBatch(2.0, 6, 10 + i));
    EXPECT_TRUE(ctl.decision().stop());
    EXPECT_EQ(ctl.decision().reason, StopReason::BudgetExhausted);
    EXPECT_EQ(ctl.decision().workloads, 12u);
    EXPECT_EQ(ctl.budgetWorkloads(), 12u);
}

TEST(AdaptiveController, PopulationBoundsTheBudget)
{
    SequentialConfig cfg;
    cfg.minWorkloads = 2;
    SequentialController ctl(cfg, 10);
    EXPECT_EQ(ctl.budgetWorkloads(), 10u);
    ctl.observeBatch(symmetricBatch(2.0, 10, 42));
    EXPECT_EQ(ctl.decision().reason,
              StopReason::PopulationExhausted);
}

TEST(AdaptiveController, ReplayAfterStopKeepsFirstDecision)
{
    SequentialConfig cfg;
    cfg.minWorkloads = 4;
    SequentialController ctl(cfg, 1000);
    ctl.observeBatch(noisyBatch(1.0, 0.1, 8, 5));
    ASSERT_TRUE(ctl.decision().stop());
    const SequentialDecision before = ctl.decision();
    // Feeding more batches (replay of a longer artifact) must not
    // change a committed decision.
    ctl.observeBatch(noisyBatch(-5.0, 0.1, 8, 6));
    EXPECT_EQ(ctl.decision().reason, before.reason);
    EXPECT_EQ(ctl.decision().workloads, before.workloads);
    EXPECT_EQ(ctl.decision().confidence, before.confidence);
    EXPECT_EQ(ctl.batches(), 2u);
}

TEST(AdaptiveController, WallClockNeverOverridesAStop)
{
    SequentialConfig cfg;
    cfg.minWorkloads = 4;
    SequentialController ctl(cfg, 1000);
    ctl.observeBatch(noisyBatch(1.0, 0.1, 8, 7));
    ASSERT_EQ(ctl.decision().reason, StopReason::TargetReached);
    ctl.observeWallClockExpired();
    EXPECT_EQ(ctl.decision().reason, StopReason::TargetReached);

    SequentialController running(cfg, 1000);
    running.observeBatch(symmetricBatch(2.0, 8, 8));
    ASSERT_FALSE(running.decision().stop());
    running.observeWallClockExpired();
    EXPECT_EQ(running.decision().reason, StopReason::WallClock);
}

TEST(AdaptiveController, RejectsDegenerateConfigs)
{
    EXPECT_THROW(SequentialController({0.4, 32, 0}, 10),
                 FatalError);
    EXPECT_THROW(SequentialController({1.0, 32, 0}, 10),
                 FatalError);
    EXPECT_THROW(SequentialController({0.9, 1, 0}, 10),
                 FatalError);
    EXPECT_THROW(SequentialController({0.9, 32, 0}, 0),
                 FatalError);
}

TEST(AdaptiveController, StopReasonNames)
{
    EXPECT_STREQ(toString(StopReason::None), "none");
    EXPECT_STREQ(toString(StopReason::TargetReached),
                 "target-reached");
    EXPECT_STREQ(toString(StopReason::BudgetExhausted),
                 "budget-exhausted");
    EXPECT_STREQ(toString(StopReason::PopulationExhausted),
                 "population-exhausted");
    EXPECT_STREQ(toString(StopReason::WallClock), "wall-clock");
}

TEST(AdaptiveSchedule, DeterministicUniformInRange)
{
    const std::uint64_t n = 4.3e6;
    RunningStats ranks;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        const std::uint64_t r = adaptiveScheduleRank(0xabcd, 1, i, n);
        ASSERT_LT(r, n);
        EXPECT_EQ(r, adaptiveScheduleRank(0xabcd, 1, i, n));
        ranks.add(static_cast<double>(r));
    }
    // Uniform over [0, n): the mean of 4000 draws lies within a
    // few standard errors of n/2.
    const double se = static_cast<double>(n) /
                      std::sqrt(12.0 * 4000.0);
    EXPECT_NEAR(ranks.mean(), n / 2.0, 6.0 * se);
    // Different seed or fingerprint: a different schedule.
    EXPECT_NE(adaptiveScheduleRank(0xabcd, 1, 0, n),
              adaptiveScheduleRank(0xabcd, 2, 0, n));
    EXPECT_NE(adaptiveScheduleRank(0xabcd, 1, 0, n),
              adaptiveScheduleRank(0xabce, 1, 0, n));
}

TEST(AdaptiveSchedule, CandidateSlotsAreDistinctStreams)
{
    const std::uint64_t n = 1000;
    // Slot k of the candidate stream must differ from the plain
    // schedule and from other slots (they are independent hashes).
    int collisions = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t plain =
            adaptiveScheduleRank(7, 1, i, n);
        const std::uint64_t c0 =
            adaptiveCandidateRank(7, 1, i, 0, n);
        const std::uint64_t c1 =
            adaptiveCandidateRank(7, 1, i, 1, n);
        if (plain == c0 || c0 == c1)
            ++collisions;
    }
    EXPECT_LT(collisions, 5);
}

// -------------------------------------------------------------------
// Ranked-set sampling + repeated subsampling
// -------------------------------------------------------------------

TEST(AdaptiveRankedSet, DrawsAreDeterministicAndInRange)
{
    std::vector<double> d(100);
    Rng init(3);
    for (double &v : d)
        v = init.nextDouble();
    const auto sampler = makeRankedSetSampler(d, {4});
    EXPECT_EQ(sampler->name(), "ranked-set");

    Rng r1(9), r2(9);
    const Sample a = sampler->draw(20, r1);
    const Sample b = sampler->draw(20, r2);
    ASSERT_EQ(a.strata.size(), 1u);
    EXPECT_EQ(a.strata[0].indices, b.strata[0].indices);
    EXPECT_EQ(a.strata[0].indices.size(), 20u);
    for (std::size_t i : a.strata[0].indices)
        EXPECT_LT(i, d.size());
}

TEST(AdaptiveRankedSet, MeanStaysUnbiasedWithLowerVariance)
{
    // Population with a strong trend: ranked sets should estimate
    // the same mean as random sampling with a smaller spread of
    // sample means.
    std::vector<double> d(400);
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<double>(i);
    const double pop_mean = (d.size() - 1) / 2.0;

    const auto rss = makeRankedSetSampler(d, {5});
    const auto rnd = makeRandomSampler(d.size());
    RunningStats rss_means, rnd_means;
    Rng rng(17);
    Sample s;
    for (int rep = 0; rep < 300; ++rep) {
        rss->drawInto(s, 10, rng);
        double sum = 0;
        for (std::size_t i : s.strata[0].indices)
            sum += d[i];
        rss_means.add(sum / 10.0);
        rnd->drawInto(s, 10, rng);
        sum = 0;
        for (std::size_t i : s.strata[0].indices)
            sum += d[i];
        rnd_means.add(sum / 10.0);
    }
    EXPECT_NEAR(rss_means.mean(), pop_mean, 8.0);
    EXPECT_NEAR(rnd_means.mean(), pop_mean, 8.0);
    EXPECT_LT(rss_means.variancePopulation(),
              rnd_means.variancePopulation());
}

TEST(AdaptiveRankedSet, ApproxRankerComposesPerBenchmarkIpcs)
{
    // 3 benchmarks; Y uniformly faster: every score positive and
    // O(K) composition matches a hand-computed IPCT difference.
    ApproxRanker ranker(ThroughputMetric::IPCT, {1.0, 2.0, 3.0},
                        {1.5, 2.5, 3.5}, {1.0, 1.0, 1.0});
    const std::vector<std::uint32_t> w = {0, 2};
    // IPCT: sum of IPCs. X: 1+3=4, Y: 1.5+3.5=5, d = (5-4)/ref...
    const double got = ranker.score(w);
    EXPECT_GT(got, 0.0);
    const std::vector<std::uint32_t> all = {0, 1, 2};
    EXPECT_GT(ranker.score(all), 0.0);
    EXPECT_EQ(ranker.numBenchmarks(), 3u);
}

TEST(AdaptiveRankedSet, RepeatedSubsampleMeasuresDispersion)
{
    std::vector<double> d(64);
    Rng init(5);
    for (double &v : d)
        v = 1.0 + 0.2 * (init.nextDouble() - 0.5);
    Rng r1(11), r2(11);
    const SubsampleEstimate a = repeatedSubsample(d, 16, 200, r1);
    const SubsampleEstimate b = repeatedSubsample(d, 16, 200, r2);
    EXPECT_EQ(a.confidence, b.confidence);
    EXPECT_EQ(a.meanD, b.meanD);
    EXPECT_EQ(a.subsampleSize, 16u);
    EXPECT_EQ(a.redraws, 200u);
    // All-positive d: every subsample mean is positive.
    EXPECT_EQ(a.confidence, 1.0);
    EXPECT_NEAR(a.meanD, 1.0, 0.1);
    EXPECT_GE(a.stddevOfMeans, 0.0);
}

TEST(AdaptiveRankedSet, SubsampleLargerThanPopulationClamps)
{
    const std::vector<double> d = {1.0, 2.0, 3.0};
    Rng rng(1);
    const SubsampleEstimate e = repeatedSubsample(d, 100, 50, rng);
    EXPECT_EQ(e.subsampleSize, 3u);
    EXPECT_EQ(e.confidence, 1.0);
    EXPECT_NEAR(e.meanD, 2.0, 1e-12);
    EXPECT_NEAR(e.stddevOfMeans, 0.0, 1e-12);
}

// -------------------------------------------------------------------
// Over-sized draw clamps (sampling layer)
// -------------------------------------------------------------------

TEST(AdaptiveClamp, EmpiricalConfidenceClampsOversizedSamples)
{
    // 6-workload population, sample size 50: without the clamp
    // this would be a fatal (stratified) or degenerate draw.
    const std::vector<double> tx = {1.0, 1.1, 0.9, 1.0, 1.05, 0.95};
    const std::vector<double> ty = {1.2, 1.3, 1.1, 1.2, 1.25, 1.15};
    Rng rng(21);
    const auto sampler = makeRandomSampler(tx.size());
    const double c = empiricalConfidence(
        *sampler, 50, 64, ThroughputMetric::IPCT, tx, ty, rng);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    // Y dominates on every workload: the clamped full-population
    // draw must always see Y ahead.
    EXPECT_EQ(c, 1.0);
}

TEST(AdaptiveClamp, StratifiedDrawClampsToPopulation)
{
    // Two clearly separated d clusters of 3 workloads each; ask
    // for 60 of 6.  Without the clamp the proportional allocation
    // would try to draw 30 from each 3-element stratum and abort.
    const std::vector<double> d = {0.10, 0.12, 0.11, 5.0, 5.2, 5.1};
    WorkloadStrataConfig cfg;
    cfg.wt = 3;
    cfg.tsd = 0.5;
    const auto sampler = makeWorkloadStratifiedSampler(d, cfg);
    Rng rng(31);
    const Sample s = sampler->draw(60, rng);
    std::size_t total = 0;
    for (const auto &st : s.strata)
        total += st.indices.size();
    EXPECT_EQ(total, 6u);
}

// -------------------------------------------------------------------
// Adaptive artifact persistence
// -------------------------------------------------------------------

class AdaptivePersist : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_adaptive_persist").string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST_F(AdaptivePersist, BatchRoundTrips)
{
    persist::AdaptiveBatch b;
    b.fingerprint = 0xfeed;
    b.index = 3;
    b.firstPosition = 12;
    b.ranks = {5, 9, 2, 2};
    b.d = {0.5, -0.25, 0.0, 1.5};
    persist::writeAdaptiveBatch(dir_, b);

    const persist::AdaptiveBatch got =
        persist::readAdaptiveBatch(dir_, 0xfeed, 3);
    EXPECT_EQ(got.firstPosition, 12u);
    EXPECT_EQ(got.ranks, b.ranks);
    EXPECT_EQ(got.d, b.d);
}

TEST_F(AdaptivePersist, BatchRejectsDamageAndMismatch)
{
    persist::AdaptiveBatch b;
    b.fingerprint = 0xfeed;
    b.index = 0;
    b.ranks = {1, 2, 3};
    b.d = {0.1, 0.2, 0.3};
    persist::writeAdaptiveBatch(dir_, b);
    const std::string path = persist::adaptiveBatchPath(dir_, 0);

    EXPECT_THROW(persist::readAdaptiveBatch(dir_, 0xbeef, 0),
                 persist::CacheInvalid);
    EXPECT_THROW(persist::readAdaptiveBatch(dir_, 0xfeed, 1),
                 persist::CacheInvalid);

    ASSERT_GT(test::fileSize(path), 40u);
    test::flipBit(path, 40);
    EXPECT_THROW(persist::readAdaptiveBatch(dir_, 0xfeed, 0),
                 persist::CacheInvalid);
    test::flipBit(path, 40); // restore
    test::truncateFile(path, test::fileSize(path) - 3);
    EXPECT_THROW(persist::readAdaptiveBatch(dir_, 0xfeed, 0),
                 persist::CacheInvalid);
}

TEST_F(AdaptivePersist, DecisionRoundTrips)
{
    persist::AdaptiveDecisionRecord d;
    d.fingerprint = 0xabc;
    d.reason =
        static_cast<std::uint8_t>(StopReason::TargetReached);
    d.yWins = 1;
    d.method = "ranked-set";
    d.batches = 4;
    d.workloads = 256;
    d.confidence = 0.981;
    d.cv = 2.5;
    d.target = 0.977;
    d.trajectory = {0.6, 0.8, 0.95, 0.981};
    EXPECT_FALSE(persist::hasAdaptiveDecision(dir_));
    persist::writeAdaptiveDecision(dir_, d);
    EXPECT_TRUE(persist::hasAdaptiveDecision(dir_));

    const persist::AdaptiveDecisionRecord got =
        persist::readAdaptiveDecision(dir_);
    EXPECT_EQ(got.fingerprint, 0xabcu);
    EXPECT_EQ(got.method, "ranked-set");
    EXPECT_EQ(got.workloads, 256u);
    EXPECT_EQ(got.trajectory, d.trajectory);

    ASSERT_GT(test::fileSize(persist::adaptiveDecisionPath(dir_)),
              40u);
    test::flipBit(persist::adaptiveDecisionPath(dir_), 40);
    EXPECT_THROW(persist::readAdaptiveDecision(dir_),
                 persist::CacheInvalid);
}

// -------------------------------------------------------------------
// Sequential campaign runner
// -------------------------------------------------------------------

/** Per-test scratch directory; dir-less model store (no caches). */
class AdaptiveCampaign : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_adaptive").string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        unsetenv("WSEL_JOBS");
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    /**
     * The standard run: LRU vs DIP over the full 4-core population
     * of a 3-benchmark suite (15 workloads), batches of 4, a
     * target no real data reaches (so the population bounds the
     * run at 15 workloads = 4 batches) unless overridden.
     */
    AdaptiveResult
    run(const std::string &out, const AdaptiveOptions &opts)
    {
        const auto suite = testSuite();
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), 4);
        BadcoModelStore store(CoreConfig{}, kUops, 5);
        return runAdaptiveCampaign(pop, PolicyKind::DIP,
                                   PolicyKind::LRU,
                                   ThroughputMetric::IPCT, kUops,
                                   store, suite, out, opts);
    }

    AdaptiveOptions
    baseOptions() const
    {
        AdaptiveOptions o;
        o.jobs = 1;
        o.batchWorkloads = 4;
        o.stop.targetConfidence = 0.999999;
        o.stop.minWorkloads = 4;
        o.subsampleRedraws = 64;
        return o;
    }

    /** Every artifact byte: batch files in order + decision. */
    std::string
    artifactBytes(const std::string &out, std::uint64_t batches)
    {
        std::string all;
        for (std::uint64_t b = 0; b < batches; ++b)
            all += test::readFile(
                persist::adaptiveBatchPath(out, b));
        all += "|";
        all += test::readFile(persist::adaptiveDecisionPath(out));
        return all;
    }

    std::string dir_;
};

TEST_F(AdaptiveCampaign, RunsToPopulationExhaustion)
{
    const AdaptiveResult r = run(path("a"), baseOptions());
    EXPECT_EQ(r.verdict.reason, StopReason::PopulationExhausted);
    EXPECT_EQ(r.verdict.workloads, 15u);
    EXPECT_EQ(r.decision.batches, 4u);
    EXPECT_EQ(r.cellsSimulated, 30u);
    EXPECT_EQ(r.cellsResumed, 0u);
    EXPECT_EQ(r.budgetWorkloads, 15u);
    EXPECT_EQ(r.cellsSaved(), 0u);
    EXPECT_EQ(r.decision.trajectory.size(), 4u);
    EXPECT_TRUE(persist::hasAdaptiveDecision(path("a")));
    // d statistics are real: the batch files replay to them.
    EXPECT_EQ(r.d.count(), 15u);
    // The subsample cross-check ran over all 15 d values.
    EXPECT_EQ(r.subsample.redraws, 64u);
    EXPECT_EQ(r.subsample.subsampleSize, 7u);
}

TEST_F(AdaptiveCampaign, BudgetStopSavesCells)
{
    AdaptiveOptions o = baseOptions();
    o.stop.maxWorkloads = 8;
    const AdaptiveResult r = run(path("a"), o);
    EXPECT_EQ(r.verdict.reason, StopReason::BudgetExhausted);
    EXPECT_EQ(r.verdict.workloads, 8u);
    EXPECT_EQ(r.cellsSimulated, 16u);
    EXPECT_EQ(r.budgetWorkloads, 8u);
}

TEST_F(AdaptiveCampaign, WallClockBudgetStopsAfterFirstBatch)
{
    AdaptiveOptions o = baseOptions();
    // A sub-nanosecond budget expires during batch 0, so the run
    // stops at the first batch boundary and banks the remaining
    // 11 workloads (22 cells) as savings.
    o.wallClockBudget = 1e-9;
    const AdaptiveResult r = run(path("a"), o);
    EXPECT_EQ(r.verdict.reason, StopReason::WallClock);
    EXPECT_EQ(r.verdict.workloads, 4u);
    EXPECT_EQ(r.cellsSimulated, 8u);
    EXPECT_EQ(r.cellsSaved(), 22u);
    EXPECT_TRUE(persist::hasAdaptiveDecision(path("a")));
    EXPECT_EQ(r.decision.batches, 1u);
}

TEST_F(AdaptiveCampaign, SerialAndParallelAreBitwiseIdentical)
{
    AdaptiveOptions serial = baseOptions();
    const AdaptiveResult a = run(path("serial"), serial);
    AdaptiveOptions par = baseOptions();
    par.jobs = 8;
    const AdaptiveResult b = run(path("par"), par);
    EXPECT_EQ(a.verdict.workloads, b.verdict.workloads);
    EXPECT_EQ(artifactBytes(path("serial"), a.decision.batches),
              artifactBytes(path("par"), b.decision.batches));
}

TEST_F(AdaptiveCampaign, RankedSetRunsPrepassAndIsDeterministic)
{
    AdaptiveOptions o = baseOptions();
    o.method = AdaptiveMethod::RankedSet;
    o.setSize = 3;
    const AdaptiveResult a = run(path("a"), o);
    EXPECT_EQ(a.prepassCells, 6u); // 3 benchmarks x 2 policies
    EXPECT_EQ(a.decision.method, "ranked-set");
    o.jobs = 8;
    const AdaptiveResult b = run(path("b"), o);
    EXPECT_EQ(artifactBytes(path("a"), a.decision.batches),
              artifactBytes(path("b"), b.decision.batches));
    // The ranked-set schedule differs from the random one.
    const AdaptiveResult rnd = run(path("rnd"), baseOptions());
    EXPECT_NE(artifactBytes(path("a"), a.decision.batches),
              artifactBytes(path("rnd"), rnd.decision.batches));
}

TEST_F(AdaptiveCampaign, KillMidBatchResumesBitwiseIdentical)
{
    const std::string ref = path("ref");
    const AdaptiveResult full = run(ref, baseOptions());
    const std::string bytes =
        artifactBytes(ref, full.decision.batches);

    for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        const std::string out =
            path("killed_j" + std::to_string(jobs));
        AdaptiveOptions o = baseOptions();
        o.jobs = jobs;
        {
            // Kill inside the second batch: cell 11 of the run is
            // batch 1's third cell.
            test::FaultInjector kill("adaptive.cell", 11);
            EXPECT_THROW(run(out, o), test::InjectedFault);
        }
        // Batch 0 survived; batch 1 never hit the disk.
        EXPECT_TRUE(
            fs::exists(persist::adaptiveBatchPath(out, 0)));
        EXPECT_FALSE(
            fs::exists(persist::adaptiveBatchPath(out, 1)));
        EXPECT_FALSE(persist::hasAdaptiveDecision(out));

        AdaptiveOptions resume = o;
        resume.resume = true;
        const AdaptiveResult r = run(out, resume);
        EXPECT_EQ(r.batchesResumed, 1u);
        EXPECT_EQ(r.cellsResumed, 8u);
        EXPECT_EQ(r.cellsSimulated, 22u);
        EXPECT_EQ(bytes, artifactBytes(out, r.decision.batches));
    }
}

TEST_F(AdaptiveCampaign, KillAtBatchBoundaryResumesBitwise)
{
    const std::string ref = path("ref");
    const AdaptiveResult full = run(ref, baseOptions());
    const std::string bytes =
        artifactBytes(ref, full.decision.batches);

    const std::string out = path("killed");
    {
        // Kill during the third batch file's atomic rename: the
        // batch is fully simulated but never becomes visible — the
        // batch-boundary crash.
        test::FaultInjector kill("atomic.before-rename", 3);
        EXPECT_THROW(run(out, baseOptions()),
                     test::InjectedFault);
    }
    EXPECT_TRUE(fs::exists(persist::adaptiveBatchPath(out, 0)));
    EXPECT_TRUE(fs::exists(persist::adaptiveBatchPath(out, 1)));
    EXPECT_FALSE(fs::exists(persist::adaptiveBatchPath(out, 2)));

    AdaptiveOptions resume = baseOptions();
    resume.resume = true;
    const AdaptiveResult r = run(out, resume);
    EXPECT_EQ(r.batchesResumed, 2u);
    EXPECT_EQ(r.cellsResumed, 16u);
    EXPECT_EQ(bytes, artifactBytes(out, r.decision.batches));
}

TEST_F(AdaptiveCampaign, CorruptBatchIsQuarantinedAndResimulated)
{
    const std::string ref = path("ref");
    const AdaptiveResult full = run(ref, baseOptions());
    const std::string bytes =
        artifactBytes(ref, full.decision.batches);

    const std::string out = path("corrupt");
    run(out, baseOptions());
    test::flipBit(persist::adaptiveBatchPath(out, 1), 40);
    fs::remove(persist::adaptiveDecisionPath(out));

    AdaptiveOptions resume = baseOptions();
    resume.resume = true;
    const AdaptiveResult r = run(out, resume);
    // Batch 0 resumed; 1 was quarantined and re-simulated; 2 and 3
    // resumed (still intact).
    EXPECT_EQ(r.batchesResumed, 3u);
    EXPECT_EQ(r.batchesRun, 1u);
    EXPECT_EQ(bytes, artifactBytes(out, r.decision.batches));
}

TEST_F(AdaptiveCampaign, FreshRunClearsStaleArtifacts)
{
    const std::string out = path("a");
    run(out, baseOptions());
    // A non-resume rerun with a smaller budget must not leave the
    // old (longer) run's later batches behind.
    AdaptiveOptions o = baseOptions();
    o.stop.maxWorkloads = 8;
    o.resume = false;
    const AdaptiveResult r = run(out, o);
    EXPECT_EQ(r.decision.batches, 2u);
    EXPECT_FALSE(fs::exists(persist::adaptiveBatchPath(out, 2)));
    EXPECT_FALSE(fs::exists(persist::adaptiveBatchPath(out, 3)));
}

TEST_F(AdaptiveCampaign, AdaptiveMethodNamesRoundTrip)
{
    EXPECT_EQ(parseAdaptiveMethod("random"),
              AdaptiveMethod::Random);
    EXPECT_EQ(parseAdaptiveMethod("ranked-set"),
              AdaptiveMethod::RankedSet);
    EXPECT_STREQ(toString(AdaptiveMethod::Random), "random");
    EXPECT_STREQ(toString(AdaptiveMethod::RankedSet),
                 "ranked-set");
    EXPECT_THROW(parseAdaptiveMethod("bogus"), FatalError);
}

} // namespace

} // namespace wsel

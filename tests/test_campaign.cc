/**
 * @file
 * Tests for campaign running, persistence and throughput extraction.
 */

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "sim/campaign.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"
#include "test_util.hh"

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
    return s;
}

Campaign
tinyCampaign(const std::string &artifact_dir = "")
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2); // 3 workloads
    BadcoModelStore store(CoreConfig{}, 6000, 5);
    CampaignOptions opts;
    opts.artifactDir = artifact_dir;
    return runBadcoCampaign(pop.enumerateAll(),
                            {PolicyKind::LRU, PolicyKind::DIP}, 2,
                            6000, store, suite, opts);
}

} // namespace

TEST(Campaign, ShapeAndContents)
{
    const Campaign c = tinyCampaign();
    EXPECT_EQ(c.simulator, "badco");
    EXPECT_EQ(c.cores, 2u);
    EXPECT_EQ(c.targetUops, 6000u);
    ASSERT_EQ(c.policies.size(), 2u);
    ASSERT_EQ(c.workloads.size(), 3u);
    ASSERT_EQ(c.refIpc.size(), 2u);
    ASSERT_EQ(c.ipc.size(), 2u);
    for (const auto &per_policy : c.ipc) {
        ASSERT_EQ(per_policy.size(), 3u);
        for (const auto &per_workload : per_policy) {
            ASSERT_EQ(per_workload.size(), 2u);
            for (double ipc : per_workload)
                EXPECT_GT(ipc, 0.0);
        }
    }
    EXPECT_GT(c.simSeconds, 0.0);
    EXPECT_EQ(c.instructions, 2u * 3u * 2u * 6000u);
    EXPECT_GT(c.mips(), 0.0);
}

TEST(Campaign, PolicyIndexLookup)
{
    const Campaign c = tinyCampaign();
    EXPECT_EQ(c.policyIndex(PolicyKind::LRU), 0u);
    EXPECT_EQ(c.policyIndex(PolicyKind::DIP), 1u);
    EXPECT_THROW(c.policyIndex(PolicyKind::FIFO), FatalError);
}

TEST(Campaign, PerWorkloadThroughputsMatchManualFormula)
{
    const Campaign c = tinyCampaign();
    const auto t =
        c.perWorkloadThroughputs(0, ThroughputMetric::WSU);
    ASSERT_EQ(t.size(), c.workloads.size());
    for (std::size_t w = 0; w < t.size(); ++w) {
        double sum = 0.0;
        for (std::size_t k = 0; k < c.cores; ++k)
            sum += c.ipc[0][w][k] / c.refIpc[c.workloads[w][k]];
        EXPECT_NEAR(t[w], sum / c.cores, 1e-12);
    }
}

TEST(Campaign, SaveLoadRoundTrip)
{
    const Campaign c = tinyCampaign();
    const auto path = test::scratchPath("wsel_test_campaign");
    c.save(path.string());
    const Campaign r = Campaign::load(path.string());
    // Three workloads: one row per shard whatever the job count.
    EXPECT_EQ(persist::readV3Manifest(path.string()).shardRows, 1u);
    EXPECT_EQ(r.simulator, c.simulator);
    EXPECT_EQ(r.cores, c.cores);
    EXPECT_EQ(r.targetUops, c.targetUops);
    EXPECT_EQ(r.policies, c.policies);
    EXPECT_EQ(r.benchmarks, c.benchmarks);
    ASSERT_EQ(r.workloads.size(), c.workloads.size());
    for (std::size_t w = 0; w < c.workloads.size(); ++w)
        EXPECT_EQ(r.workloads[w], c.workloads[w]);
    for (std::size_t i = 0; i < c.refIpc.size(); ++i)
        EXPECT_DOUBLE_EQ(r.refIpc[i], c.refIpc[i]);
    for (std::size_t p = 0; p < c.policies.size(); ++p)
        for (std::size_t w = 0; w < c.workloads.size(); ++w)
            for (std::size_t k = 0; k < c.cores; ++k)
                EXPECT_DOUBLE_EQ(r.ipc[p][w][k], c.ipc[p][w][k]);
    std::filesystem::remove_all(path);
}

TEST(Campaign, LoadRejectsGarbage)
{
    const auto path = test::scratchPath("wsel_test_garbage.csv");
    {
        std::ofstream os(path);
        os << "hello,world\n";
    }
    EXPECT_THROW(Campaign::load(path.string()), FatalError);
    std::filesystem::remove(path);
}

TEST(Campaign, CachedCampaignProducesOnceThenLoads)
{
    const auto dir = test::scratchPath("wsel_test_campaign_cache");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    setenv("WSEL_CACHE_DIR", dir.c_str(), 1);
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return tinyCampaign();
    };
    const Campaign a = cachedCampaign("unit_test_key", 0, produce);
    const Campaign b = cachedCampaign("unit_test_key", 0, produce);
    EXPECT_EQ(produced, 1);
    EXPECT_EQ(a.workloads.size(), b.workloads.size());
    unsetenv("WSEL_CACHE_DIR");
    std::filesystem::remove_all(dir);
}

TEST(Campaign, DetailedCampaignRuns)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2);
    const Campaign c = runDetailedCampaign(
        pop.enumerateAll(), {PolicyKind::LRU}, 2, 4000,
        CoreConfig{}, suite);
    EXPECT_EQ(c.simulator, "detailed");
    EXPECT_EQ(c.workloads.size(), 3u);
    for (double ipc : c.ipc[0][0])
        EXPECT_GT(ipc, 0.0);
}

TEST(Campaign, CampaignInstrumentsMove)
{
    // Every campaign.* instrument in the metrics catalog must move
    // on runBadcoCampaign runs — a fresh one and a resume pass over
    // its artifact — so the catalog never lists a number the engine
    // cannot produce.
    const auto dir = test::scratchPath("wsel_campaign_instruments");
    std::filesystem::remove_all(dir);
    obs::enableMetrics();
    const obs::MetricsSnapshot before = obs::metricsSnapshot();
    tinyCampaign(dir.string());
    tinyCampaign(dir.string()); // every shard resumed
    tinyCampaign(); // a simulating pass last: the rate gauge is set
    const obs::MetricsSnapshot after = obs::metricsSnapshot();
    obs::enableMetrics(false);
    std::filesystem::remove_all(dir);
    std::size_t seen = 0;
    for (const obs::MetricsEntry &e : after.entries) {
        if (e.name.rfind("campaign.", 0) != 0)
            continue;
        ++seen;
        double was = 0.0;
        for (const obs::MetricsEntry &b : before.entries)
            if (b.name == e.name)
                was = b.value;
        if (e.type == "gauge")
            EXPECT_GT(e.value, 0.0) << e.name;
        else
            EXPECT_GT(e.value, was) << e.name;
    }
    EXPECT_GE(seen, 3u);
}

TEST(Campaign, EmptyInputsFatal)
{
    const auto suite = testSuite();
    BadcoModelStore store(CoreConfig{}, 1000, 5);
    EXPECT_THROW(runBadcoCampaign({}, {PolicyKind::LRU}, 2, 1000,
                                  store, suite),
                 FatalError);
}

namespace
{

/** FNV-1a over the bit patterns of @p v. */
std::uint64_t
digestDoubles(std::span<const double> v)
{
    persist::Fnv1a h;
    for (double d : v)
        h.updateU64(std::bit_cast<std::uint64_t>(d));
    return h.digest();
}

struct CampaignDigest
{
    std::uint64_t ipc, refIpc, fingerprint;
};

CampaignDigest
digestOf(const Campaign &c)
{
    return {digestDoubles(c.ipc.data()), digestDoubles(c.refIpc),
            c.fingerprint};
}

std::vector<BenchmarkProfile>
goldenSuite()
{
    return {test::lightProfile(7), test::heavyProfile(11),
            test::lightProfile(13)};
}

/** A sample with a repeated rank, as sampling with replacement
 * produces. */
WorkloadSet
goldenSample(const WorkloadPopulation &pop)
{
    return WorkloadSet::fromRanks(pop, {4, 0, 5, 2, 2, 1});
}

void
expectDigest(const Campaign &c, const CampaignDigest &want)
{
    const CampaignDigest got = digestOf(c);
    EXPECT_EQ(got.ipc, want.ipc) << std::hex << got.ipc;
    EXPECT_EQ(got.refIpc, want.refIpc) << std::hex << got.refIpc;
    EXPECT_EQ(got.fingerprint, want.fingerprint)
        << std::hex << got.fingerprint;
}

} // namespace

// The IPC bytes a campaign produces are a contract: they may not move
// when the engine underneath changes.  The constants were computed by
// the in-memory engine that preceded the shard-backed one.
TEST(CampaignGolden, BadcoRankSampleAtOneAndFourJobs)
{
    const auto suite = goldenSuite();
    const WorkloadPopulation pop(3, 2);
    BadcoModelStore store(CoreConfig{}, 5000, 5);
    const CampaignDigest want{0xf930d09eefa1f6d4ULL,
                              0x01b19c7025dbdbc6ULL,
                              0xcf64cd5e987bbe8cULL};
    for (std::size_t jobs : {1, 4}) {
        CampaignOptions opts;
        opts.seed = 3;
        opts.jobs = jobs;
        expectDigest(runBadcoCampaign(goldenSample(pop),
                                      {PolicyKind::LRU,
                                       PolicyKind::DIP},
                                      2, 5000, store, suite, opts),
                     want);
    }
}

TEST(CampaignGolden, DetailedRankSample)
{
    const auto suite = goldenSuite();
    const WorkloadPopulation pop(3, 2);
    CampaignOptions opts;
    opts.seed = 3;
    opts.jobs = 2;
    expectDigest(runDetailedCampaign(goldenSample(pop),
                                     {PolicyKind::LRU,
                                      PolicyKind::DRRIP},
                                     2, 3000, CoreConfig{}, suite,
                                     opts),
                 {0xae570a0ab1b5a923ULL, 0x10fc383efd788b86ULL,
                  0x84612dfacf5078dbULL});
}

TEST(CampaignGolden, BadcoEnumeratedList)
{
    const auto suite = goldenSuite();
    const WorkloadPopulation pop(3, 2);
    BadcoModelStore store(CoreConfig{}, 5000, 5);
    expectDigest(runBadcoCampaign(pop.enumerateAll(),
                                  {PolicyKind::LRU, PolicyKind::DIP,
                                   PolicyKind::FIFO},
                                  2, 5000, store, suite),
                 {0xd46f279607c430e4ULL, 0x01b19c7025dbdbc6ULL,
                  0x4ff93a819bbdea8dULL});
}

} // namespace wsel

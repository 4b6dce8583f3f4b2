/**
 * @file
 * Determinism tests for parallel campaign execution: the IPC
 * matrix must be bitwise identical for any --jobs count, a
 * campaign killed mid-run under parallel jobs must resume from its
 * shards to the exact uninterrupted matrix (shards written at one
 * job count resume at another), a shard whose rows ran on
 * different workers must equal the serial one, the reference IPCs
 * must not depend on the job count, and the per-cell seed
 * derivation must be stable and collision-free across the matrix.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault_injection.hh"
#include "sim/campaign.hh"
#include "sim/characterize.hh"
#include "sim/multicore.hh"
#include "stats/persist.hh"
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
    return s;
}

const std::vector<PolicyKind> kPolicies = {PolicyKind::LRU,
                                           PolicyKind::DIP};

void
expectSameResults(const Campaign &a, const Campaign &b)
{
    ASSERT_EQ(a.policies.size(), b.policies.size());
    ASSERT_EQ(a.workloads.size(), b.workloads.size());
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    ASSERT_EQ(a.refIpc.size(), b.refIpc.size());
    for (std::size_t i = 0; i < a.refIpc.size(); ++i)
        EXPECT_EQ(a.refIpc[i], b.refIpc[i]) << "refIpc " << i;
    for (std::size_t p = 0; p < a.policies.size(); ++p) {
        for (std::size_t w = 0; w < a.workloads.size(); ++w) {
            ASSERT_EQ(a.ipc[p][w].size(), b.ipc[p][w].size());
            for (std::size_t k = 0; k < a.ipc[p][w].size(); ++k) {
                // Bitwise equality: N jobs must be
                // indistinguishable from 1 job.
                EXPECT_EQ(a.ipc[p][w][k], b.ipc[p][w][k])
                    << "cell (" << p << "," << w << "," << k << ")";
            }
        }
    }
}

/** Per-test scratch directory for models and campaign shards. */
class CampaignParallel : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_parallel").string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        // A leaked WSEL_JOBS would change what jobs=0 means.
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
     * The standard campaign of these tests: 2 policies x the full
     * @p cores-way workload population over a 2-benchmark suite
     * (3, 5, or 9 workloads for 2, 4, or 8 cores).
     */
    Campaign
    runParallel(std::uint32_t cores, std::size_t jobs,
                const std::string &artifact = "")
    {
        const auto suite = testSuite();
        const WorkloadPopulation pop(2, cores);
        BadcoModelStore store(CoreConfig{}, kUops, 5,
                              path("models"));
        CampaignOptions opts;
        opts.jobs = jobs;
        opts.artifactDir = artifact;
        return runBadcoCampaign(pop.enumerateAll(), kPolicies,
                                cores, kUops, store, suite, opts);
    }

    std::string dir_;
};

TEST_F(CampaignParallel, JobsInvariantIpcMatrix)
{
    for (const std::uint32_t cores : {2u, 4u, 8u}) {
        const Campaign serial = runParallel(cores, 1);
        const Campaign parallel = runParallel(cores, 8);
        ASSERT_EQ(serial.workloads.size(),
                  static_cast<std::size_t>(cores) + 1);
        expectSameResults(serial, parallel);
    }
}

TEST_F(CampaignParallel, OddJobCountsAgreeToo)
{
    const Campaign serial = runParallel(4, 1);
    for (const std::size_t jobs : {2, 3, 5}) {
        const Campaign parallel = runParallel(4, jobs);
        expectSameResults(serial, parallel);
    }
}

TEST_F(CampaignParallel, KillAndResumeUnderParallelJobs)
{
    const Campaign base = runParallel(4, 1);
    const std::size_t total =
        base.policies.size() * base.workloads.size();
    ASSERT_EQ(total, 10u);

    // Which shards finish before the kill depends on the schedule;
    // the resumed matrix must not.
    for (const std::size_t n : {std::size_t{2}, total - 1}) {
        const std::string art = path("kill" + std::to_string(n));
        {
            test::FaultInjector kill("population.cell", n);
            EXPECT_THROW(runParallel(4, 8, art), test::InjectedFault)
                << "kill " << n;
        }
        const Campaign resumed = runParallel(4, 8, art);
        expectSameResults(base, resumed);
    }
}

TEST_F(CampaignParallel, ResumedShardsSkipSimulatedCells)
{
    const std::string art = path("skip");
    const Campaign full = runParallel(4, 8, art);
    // Every shard is on disk, so a rerun reuses them all and
    // simulates nothing.
    test::FaultInjector counting;
    const Campaign rerun = runParallel(4, 8, art);
    EXPECT_EQ(counting.hits("population.cell"), 0u);
    expectSameResults(full, rerun);
}

TEST_F(CampaignParallel, SerialAndParallelShardsInterchange)
{
    // Shards written by a parallel run must resume a serial run and
    // vice versa: the shard geometry and the per-cell seeds depend
    // on the row count alone, never on the job count.
    const Campaign base = runParallel(4, 1);
    for (const std::size_t writer_jobs : {std::size_t{1}, std::size_t{4}}) {
        const std::string art =
            path("x" + std::to_string(writer_jobs));
        {
            test::FaultInjector kill("population.cell", 5);
            EXPECT_THROW(runParallel(4, writer_jobs, art),
                         test::InjectedFault);
        }
        const std::size_t reader_jobs = writer_jobs == 1 ? 4 : 1;
        test::FaultInjector counting;
        const Campaign resumed = runParallel(4, reader_jobs, art);
        expectSameResults(base, resumed);
        EXPECT_LT(counting.hits("population.cell"), 10u)
            << "no shard of the killed run was reused";
        EXPECT_EQ(persist::readV3Manifest(art).shardRows, 1u);
    }
}

TEST_F(CampaignParallel, DetailedCampaignIsJobsInvariant)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2); // 3 workloads
    CampaignOptions opts;
    opts.jobs = 1;
    const Campaign serial = runDetailedCampaign(
        pop.enumerateAll(), {PolicyKind::LRU}, 2, kUops,
        CoreConfig{}, suite, opts);
    opts.jobs = 4;
    const Campaign parallel = runDetailedCampaign(
        pop.enumerateAll(), {PolicyKind::LRU}, 2, kUops,
        CoreConfig{}, suite, opts);
    expectSameResults(serial, parallel);
}

TEST_F(CampaignParallel, DetailedCampaignJobsInvariantUnderTraceEviction)
{
    // Same contract as DetailedCampaignIsJobsInvariant, but with the
    // shared trace store squeezed to a one-chunk budget so workers
    // evict and regenerate each other's chunks mid-simulation: the
    // IPC matrix must still be bitwise identical at every job count.
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2); // 3 workloads
    const auto run = [&](std::size_t jobs) {
        CampaignOptions opts;
        opts.jobs = jobs;
        return runDetailedCampaign(pop.enumerateAll(),
                                   {PolicyKind::LRU}, 2, kUops,
                                   CoreConfig{}, suite, opts);
    };
    const Campaign base = run(1);

    TraceStore &ts = TraceStore::global();
    TraceChunk probe;
    probe.count = 256;
    ts.clear();
    ts.setChunkUops(256);
    ts.setBudgetBytes(probe.bytes());
    const std::uint64_t evictions_before = ts.evictions();

    const Campaign squeezed_serial = run(1);
    const Campaign squeezed_parallel = run(8);

    ts.setChunkUops(TraceStore::kDefaultChunkUops);
    ts.setBudgetBytes(TraceStore::kDefaultBudgetBytes);
    ts.clear();

    expectSameResults(base, squeezed_serial);
    expectSameResults(base, squeezed_parallel);
    EXPECT_GT(ts.evictions(), evictions_before)
        << "budget squeeze forced no evictions; test is vacuous";
}

TEST_F(CampaignParallel, DetailedMultiRowShardsAreJobsInvariant)
{
    // 132 rows (the 3 workloads of the 2-core population, repeated)
    // make 3-row shards, so the workers split each shard's rows
    // between them: the shards and the matrix must not notice.
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2);
    std::vector<Workload> rows;
    for (int rep = 0; rep < 44; ++rep)
        for (const Workload &w : pop.enumerateAll())
            rows.push_back(w);
    const auto run = [&](std::size_t jobs, const std::string &dir) {
        CampaignOptions opts;
        opts.jobs = jobs;
        opts.artifactDir = dir;
        return runDetailedCampaign(WorkloadSet(rows),
                                   {PolicyKind::LRU}, 2, 1000,
                                   CoreConfig{}, suite, opts);
    };
    const std::string serial_dir = path("serial");
    const std::string parallel_dir = path("parallel");
    const Campaign serial = run(1, serial_dir);
    const Campaign parallel = run(4, parallel_dir);
    expectSameResults(serial, parallel);

    const persist::V3Manifest m = persist::readV3Manifest(serial_dir);
    ASSERT_EQ(m.shardRows, 3u);
    for (std::uint64_t s = 0; s < m.shardCount(); ++s)
        EXPECT_EQ(test::readFile(persist::v3ShardPath(serial_dir, s)),
                  test::readFile(persist::v3ShardPath(parallel_dir, s)))
            << "shard " << s;
}

TEST_F(CampaignParallel, ReferenceIpcsAreJobsInvariant)
{
    // One freshly seeded run per benchmark into its own slot: the
    // reference IPCs cannot depend on which worker ran which.
    std::vector<BenchmarkProfile> suite;
    for (std::uint64_t seed : {7u, 13u, 19u})
        suite.push_back(test::lightProfile(seed));
    for (std::uint64_t seed : {11u, 17u})
        suite.push_back(test::heavyProfile(seed));
    // The model store keys models by name.
    for (std::size_t i = 0; i < suite.size(); ++i)
        suite[i].name += "-" + std::to_string(i);
    const UncoreConfig ucfg =
        UncoreConfig::forCores(4, PolicyKind::DIP);

    const DetailedMulticoreSim detailed(CoreConfig{}, ucfg, 1, kUops,
                                        3);
    const std::vector<double> d1 = detailed.referenceIpcs(suite, 1);
    EXPECT_EQ(d1, detailed.referenceIpcs(suite, 4));

    BadcoModelStore store(CoreConfig{}, kUops, 5, path("models"));
    const auto models = store.getSuite(suite, 1);
    const BadcoMulticoreSim badco(ucfg, 1, kUops, 3);
    const std::vector<double> b1 = badco.referenceIpcs(models, 1);
    EXPECT_EQ(b1, badco.referenceIpcs(models, 4));

    ASSERT_EQ(d1.size(), suite.size());
    ASSERT_EQ(b1.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_GT(d1[i], 0.0) << suite[i].name;
        EXPECT_GT(b1[i], 0.0) << suite[i].name;
    }
}

TEST_F(CampaignParallel, CharacterizationIsJobsInvariant)
{
    const auto suite = testSuite();
    const UncoreConfig ucfg =
        UncoreConfig::forCores(2, PolicyKind::LRU);
    const auto serial =
        characterizeSuite(suite, CoreConfig{}, ucfg, kUops, 1, 1);
    const auto parallel =
        characterizeSuite(suite, CoreConfig{}, ucfg, kUops, 1, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].name, parallel[i].name);
        EXPECT_EQ(serial[i].toVector(), parallel[i].toVector())
            << suite[i].name;
    }
}

TEST_F(CampaignParallel, ModelStoreParallelBuildMatchesSerial)
{
    const auto suite = testSuite();
    BadcoModelStore serial_store(CoreConfig{}, kUops, 5, "");
    BadcoModelStore parallel_store(CoreConfig{}, kUops, 5, "");
    const auto a = serial_store.getSuite(suite, 1);
    const auto b = parallel_store.getSuite(suite, 4);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(parallel_store.modelsBuilt(), suite.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i]->benchmark, b[i]->benchmark);
        ASSERT_EQ(a[i]->nodes.size(), b[i]->nodes.size());
        EXPECT_EQ(a[i]->traceUops, b[i]->traceUops);
    }
    // Repeated lookups serve the in-memory models.
    const auto c = parallel_store.getSuite(suite, 4);
    EXPECT_EQ(parallel_store.modelsBuilt(), suite.size());
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(b[i], c[i]); // same pointers
}

TEST_F(CampaignParallel, CellSeedIsStableUniqueAndNonZero)
{
    const std::uint64_t fp = 0x1234abcd5678ef01ULL;
    std::vector<std::uint64_t> seen;
    for (std::size_t p = 0; p < 8; ++p) {
        for (std::size_t w = 0; w < 64; ++w) {
            const std::uint64_t s = campaignCellSeed(fp, 1, p, w);
            EXPECT_NE(s, 0u);
            EXPECT_EQ(s, campaignCellSeed(fp, 1, p, w));
            seen.push_back(s);
        }
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()),
              seen.end())
        << "cell seed collision inside one campaign";
    // Different campaigns and base seeds draw different streams.
    EXPECT_NE(campaignCellSeed(fp, 1, 0, 0),
              campaignCellSeed(fp + 1, 1, 0, 0));
    EXPECT_NE(campaignCellSeed(fp, 1, 0, 0),
              campaignCellSeed(fp, 2, 0, 0));
}

} // namespace
} // namespace wsel

/**
 * @file
 * Tests for the mixed-fidelity campaign runner (sim/hybrid.hh):
 * budget-capped escalation, bitwise jobs-invariance of every
 * artifact, kill/resume identity at the `fidelity.escalate` kill
 * point and at the splice boundary, escalated cells matching a
 * pure detailed campaign bit for bit, and the headline acceptance
 * scenario — a campaign where pure BADCO flips the X-vs-Y ranking
 * and the hybrid recovers the detailed verdict by escalating a
 * bounded fraction of rows.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault_injection.hh"
#include "fidelity/calibrate.hh"
#include "fidelity/error_profile.hh"
#include "fidelity/escalation.hh"
#include "fidelity/persist_fidelity.hh"
#include "sim/campaign.hh"
#include "sim/hybrid.hh"
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

class HybridCampaign : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_hybrid").string();
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
     * of the 3-benchmark suite (15 rows, 4 shards), quantile 0.95,
     * budget 0.25, 2 rows per detailed batch.  A fresh *empty*
     * profile has an infinite error bound, so every row straddles
     * and the budget alone picks the escalation set — maximally
     * deterministic for the resilience tests.
     */
    HybridResult
    run(const std::string &out, std::size_t jobs = 1)
    {
        const auto suite = testSuite();
        const WorkloadPopulation pop(
            static_cast<std::uint32_t>(suite.size()), 4);
        BadcoModelStore store(CoreConfig{}, kUops, 5);
        fidelity::ErrorProfile profile(suite);
        HybridOptions opts;
        opts.jobs = jobs;
        opts.shardCells = 8;
        opts.batchRows = 2;
        return runHybridCampaign(pop, PolicyKind::LRU,
                                 PolicyKind::DIP,
                                 ThroughputMetric::IPCT, kUops,
                                 store, suite, profile, out, opts);
    }

    /**
     * Every artifact of a hybrid campaign directory EXCEPT
     * manifest.bin, which embeds wall-clock simSeconds and is the
     * one legitimately timing-dependent file.
     */
    std::vector<std::pair<std::string, std::string>>
    artifactBytes(const std::string &out, const HybridResult &r)
    {
        std::vector<std::pair<std::string, std::string>> files;
        for (std::uint64_t s = 0; s < r.manifest.shardCount(); ++s)
            files.emplace_back(
                "shard " + std::to_string(s),
                test::readFile(persist::v3ShardPath(out, s)));
        files.emplace_back("fidelity-bitmap",
                           test::readFile(
                               fidelity::escalationRecordPath(out)));
        const std::uint64_t batches =
            (r.escalation.escalatedCount + 1) / 2; // batchRows = 2
        for (std::uint64_t b = 0; b < batches; ++b)
            files.emplace_back(
                fidelity::fidelityBatchName(b),
                test::readFile(
                    fidelity::fidelityBatchPath(out, b)));
        files.emplace_back(
            "hybrid", test::readFile(fidelity::hybridReportPath(out)));
        return files;
    }

    void
    expectIdenticalArtifacts(const std::string &a,
                             const HybridResult &ra,
                             const std::string &b,
                             const HybridResult &rb)
    {
        const auto fa = artifactBytes(a, ra);
        const auto fb = artifactBytes(b, rb);
        ASSERT_EQ(fa.size(), fb.size());
        for (std::size_t i = 0; i < fa.size(); ++i) {
            EXPECT_EQ(fa[i].first, fb[i].first);
            EXPECT_FALSE(fa[i].second.empty()) << fa[i].first;
            EXPECT_EQ(fa[i].second, fb[i].second) << fa[i].first;
        }
    }

    std::string dir_;
};

TEST_F(HybridCampaign, BudgetCapsEscalationSet)
{
    const std::string out = path("v3");
    const HybridResult r = run(out);

    // An empty profile wants to escalate all 15 rows; the 0.25
    // budget caps the set at ceil(0.25 * 15) = 4.
    EXPECT_EQ(r.escalation.escalatedCount, 4u);
    EXPECT_EQ(r.report.workloads, 15u);
    EXPECT_EQ(r.report.escalated, 4u);
    EXPECT_NEAR(r.report.escalationFraction, 4.0 / 15.0, 1e-12);
    EXPECT_EQ(r.detailedCellsSimulated, 4u * 2u); // rows x policies
    EXPECT_EQ(r.detailedCellsResumed, 0u);
    EXPECT_TRUE(r.profileUpdated);

    // The in-memory result matches the committed artifacts.
    const fidelity::EscalationRecord rec =
        fidelity::readEscalationRecord(out);
    EXPECT_EQ(rec.escalatedCount, r.escalation.escalatedCount);
    EXPECT_EQ(rec.bitmap, r.escalation.bitmap);
    const fidelity::HybridReportRecord rep =
        fidelity::readHybridReport(out);
    EXPECT_EQ(rep.meanD, r.report.meanD);
    EXPECT_EQ(rep.comboLo, r.report.comboLo);
    EXPECT_EQ(rep.comboHi, r.report.comboHi);
    EXPECT_EQ(rep.escalated, r.report.escalated);

    // The combined bound brackets the point estimate.
    EXPECT_LE(r.report.comboLo, r.report.meanD);
    EXPECT_GE(r.report.comboHi, r.report.meanD);
}

TEST_F(HybridCampaign, SerialAndParallelBitwiseIdentical)
{
    const std::string serial = path("serial");
    const std::string parallel = path("parallel");
    const HybridResult rs = run(serial, 1);
    const HybridResult rp = run(parallel, 8);

    // The escalation SET must not depend on the job count...
    EXPECT_EQ(rs.escalation.escalatedCount,
              rp.escalation.escalatedCount);
    EXPECT_EQ(rs.escalation.bitmap, rp.escalation.bitmap);
    // ...and neither may any artifact byte.
    expectIdenticalArtifacts(serial, rs, parallel, rp);
}

TEST_F(HybridCampaign, KillMidEscalationResumesIdentical)
{
    const std::string ref = path("ref");
    const HybridResult rr = run(ref);

    // Kill at the 5th escalated cell: batch 0 (2 rows x 2
    // policies) is committed, batch 1 dies mid-flight.
    const std::string out = path("v3");
    {
        test::FaultInjector fi("fidelity.escalate", 5);
        EXPECT_THROW(run(out), test::InjectedFault);
    }
    EXPECT_FALSE(fidelity::hasHybridReport(out));

    const HybridResult r2 = run(out);
    EXPECT_EQ(r2.detailedCellsResumed, 4u);  // batch 0 survives
    EXPECT_EQ(r2.detailedCellsSimulated, 4u); // batch 1 redone
    EXPECT_EQ(r2.badco.cellsSimulated, 0u);  // phase 1 resumed
    expectIdenticalArtifacts(ref, rr, out, r2);
}

TEST_F(HybridCampaign, KillAtSpliceBoundaryResumesIdentical)
{
    // Count the reference run's atomic renames; the LAST one is
    // hybrid.bin (the commit point), so arming exactly that hit
    // kills the campaign after every detailed batch landed but
    // before the splice was committed.
    const std::string ref = path("ref");
    std::uint64_t renames = 0;
    HybridResult rr;
    {
        test::FaultInjector count;
        rr = run(ref);
        renames = count.hits("atomic.before-rename");
    }
    ASSERT_GT(renames, 0u);

    const std::string out = path("v3");
    {
        test::FaultInjector fi("atomic.before-rename", renames);
        EXPECT_THROW(run(out), test::InjectedFault);
    }
    EXPECT_FALSE(fidelity::hasHybridReport(out));
    EXPECT_TRUE(fidelity::hasEscalationRecord(out));

    const HybridResult r2 = run(out);
    EXPECT_EQ(r2.detailedCellsSimulated, 0u); // all batches kept
    EXPECT_EQ(r2.detailedCellsResumed, 4u * 2u);
    expectIdenticalArtifacts(ref, rr, out, r2);
}

TEST_F(HybridCampaign, ResumingCompleteRunSimulatesNothing)
{
    const std::string out = path("v3");
    const HybridResult r1 = run(out);
    const HybridResult r2 = run(out);
    EXPECT_EQ(r2.badco.cellsSimulated, 0u);
    EXPECT_EQ(r2.detailedCellsSimulated, 0u);
    EXPECT_EQ(r2.detailedCellsResumed, 4u * 2u);
    EXPECT_EQ(r2.escalation.bitmap, r1.escalation.bitmap);
    EXPECT_EQ(r2.report.meanD, r1.report.meanD);
    expectIdenticalArtifacts(out, r1, out, r2);
}

TEST_F(HybridCampaign, EscalatedCellsMatchPureDetailedCampaign)
{
    // The whole point of campaignCellSeed over the *detailed*
    // fingerprint: an escalated cell is bitwise the cell a pure
    // detailed campaign would have produced.
    const std::string out = path("v3");
    const HybridResult r = run(out);

    const auto suite = testSuite();
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), 4);
    CampaignOptions copts;
    copts.jobs = 8;
    const Campaign det = runDetailedCampaign(
        WorkloadSet::fullPopulation(pop),
        {PolicyKind::LRU, PolicyKind::DIP}, 4, kUops, CoreConfig{},
        suite, copts);

    std::uint64_t checked = 0;
    const std::uint64_t batches =
        (r.escalation.escalatedCount + 1) / 2;
    for (std::uint64_t b = 0; b < batches; ++b) {
        const fidelity::FidelityBatch batch =
            fidelity::readFidelityBatch(
                out, r.escalation.detailedFingerprint, b);
        for (std::size_t i = 0; i < batch.ranks.size(); ++i) {
            const std::size_t w =
                static_cast<std::size_t>(batch.ranks[i]);
            for (std::size_t p = 0; p < 2; ++p) {
                for (std::uint32_t c = 0; c < 4; ++c) {
                    EXPECT_EQ(batch.ipc[(i * 2 + p) * 4 + c],
                              det.ipc[p][w][c])
                        << "rank " << w << " policy " << p
                        << " core " << c;
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, r.escalation.escalatedCount * 2 * 4);
}

/**
 * The headline acceptance scenario: a seeded 4-core DIP-vs-DRRIP
 * campaign where the pure BADCO sweep gets the ranking WRONG (mean
 * d has the opposite sign from the detailed ground truth), and the
 * hybrid — with a profile calibrated from a detailed/BADCO pair —
 * recovers the detailed verdict while escalating no more than 25%
 * of the rows, with the combined error bound containing the
 * detailed mean.  The suite/pair/uops combination was found by a
 * systematic search over suites x policy pairs x uops (see the PR
 * notes); everything here is seeded, so the flip reproduces
 * deterministically.
 */
TEST_F(HybridCampaign, RankingFlipRecoveredWithinBudget)
{
    const std::vector<BenchmarkProfile> suite = {
        test::lightProfile(7), test::heavyProfile(11),
        test::heavyProfile(17)};
    const WorkloadPopulation pop(
        static_cast<std::uint32_t>(suite.size()), 4);
    const PolicyKind x = PolicyKind::DIP;
    const PolicyKind y = PolicyKind::DRRIP;
    const ThroughputMetric m = ThroughputMetric::IPCT;

    // Ground truth: both full-population campaigns.
    CampaignOptions copts;
    copts.jobs = 8;
    BadcoModelStore store(CoreConfig{}, kUops, 5);
    const Campaign bad =
        runBadcoCampaign(WorkloadSet::fullPopulation(pop), {x, y},
                         4, kUops, store, suite, copts);
    const Campaign det = runDetailedCampaign(
        WorkloadSet::fullPopulation(pop), {x, y}, 4, kUops,
        CoreConfig{}, suite, copts);
    auto meanD = [&](const Campaign &c) {
        const auto tx = c.perWorkloadThroughputs(0, m);
        const auto ty = c.perWorkloadThroughputs(1, m);
        double s = 0.0;
        for (std::size_t i = 0; i < tx.size(); ++i)
            s += perWorkloadDifference(m, tx[i], ty[i]);
        return s / static_cast<double>(tx.size());
    };
    const double mBadco = meanD(bad);
    const double mDetailed = meanD(det);
    // The scenario's premise: BADCO alone flips the verdict.
    ASSERT_GT(mBadco, 0.0);
    ASSERT_LT(mDetailed, 0.0);

    // Hybrid with a calibrated profile and a 20% row budget.
    fidelity::ErrorProfile profile(suite);
    fidelity::calibrateProfile(profile, det, bad);
    HybridOptions opts;
    opts.jobs = 8;
    opts.shardCells = 8;
    opts.batchRows = 2;
    opts.quantile = 0.95;
    opts.budgetFraction = 0.2;
    const HybridResult r = runHybridCampaign(
        pop, x, y, m, kUops, store, suite, profile, path("v3"),
        opts);

    // Recovery: the spliced verdict agrees with the detailed sign
    // while pure BADCO does not...
    EXPECT_LT(r.report.meanD, 0.0);
    EXPECT_EQ(r.report.yWins, 0u);
    // ...escalating no more than a quarter of the rows...
    EXPECT_EQ(r.report.escalated, 3u);
    EXPECT_LE(r.report.escalationFraction, 0.25);
    // ...and the combined (sampling + model) bound contains the
    // detailed ground truth.
    EXPECT_LE(r.report.comboLo, mDetailed);
    EXPECT_GE(r.report.comboHi, mDetailed);
}

} // namespace

} // namespace wsel

/**
 * @file
 * Tests for the Section III confidence model, including a
 * CLT-agreement property test against synthetic populations.
 */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/confidence/confidence.hh"
#include "stats/logging.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"

namespace wsel
{

TEST(ConfidenceCurve, KnownPoints)
{
    // Figure 1's curve: 0.5 at x=0, saturating near |x|=2.
    EXPECT_DOUBLE_EQ(confidenceFromX(0.0), 0.5);
    EXPECT_NEAR(confidenceFromX(2.0), 0.9977, 5e-4);
    EXPECT_NEAR(confidenceFromX(-2.0), 1.0 - confidenceFromX(2.0),
                1e-12);
    EXPECT_GT(confidenceFromX(1.0), 0.9);
}

TEST(ConfidenceCurve, MonotonicInX)
{
    double prev = 0.0;
    for (double x = -3.0; x <= 3.0; x += 0.1) {
        const double c = confidenceFromX(x);
        EXPECT_GE(c, prev);
        prev = c;
    }
}

TEST(ModelConfidence, GrowsWithSampleSize)
{
    const double cv = 2.0; // Y better on average
    double prev = 0.0;
    for (std::size_t w : {1u, 4u, 16u, 64u, 256u}) {
        const double c = modelConfidence(cv, w);
        EXPECT_GT(c, prev);
        prev = c;
    }
    EXPECT_GT(prev, 0.99);
}

TEST(ModelConfidence, NegativeCvMirrors)
{
    EXPECT_NEAR(modelConfidence(-1.5, 30),
                1.0 - modelConfidence(1.5, 30), 1e-12);
}

TEST(ModelConfidence, DegenerateCvValues)
{
    EXPECT_DOUBLE_EQ(
        modelConfidence(std::numeric_limits<double>::quiet_NaN(),
                        10),
        0.5);
    EXPECT_DOUBLE_EQ(
        modelConfidence(std::numeric_limits<double>::infinity(), 10),
        0.5);
    EXPECT_DOUBLE_EQ(modelConfidence(0.0, 10), 1.0);
    EXPECT_THROW(modelConfidence(1.0, 0), FatalError);
}

TEST(RequiredSampleSize, EquationEight)
{
    // W = 8 cv^2 (paper eq. 8).
    EXPECT_EQ(requiredSampleSize(1.0), 8u);
    EXPECT_EQ(requiredSampleSize(-1.0), 8u);
    EXPECT_EQ(requiredSampleSize(2.5), 50u);
    EXPECT_EQ(requiredSampleSize(10.0), 800u);
    EXPECT_EQ(requiredSampleSize(0.1), 1u); // floor at one workload
}

TEST(RequiredSampleSize, TextIsDashForZeroSpreadPair)
{
    // Two policies with equal throughput on every workload: d(w) is
    // zero everywhere, so cv = 0/0 and eq. 8 names no sample size.
    // The tables print "-" instead of dying.
    const std::vector<double> t{0.9, 1.4, 0.6, 1.1};
    const DifferenceStats ds =
        differenceStats(perWorkloadDifferences(ThroughputMetric::IPCT,
                                               t, t));
    ASSERT_TRUE(std::isnan(ds.cv));
    EXPECT_EQ(requiredSampleSizeText(ds.cv), "-");
    EXPECT_THROW(requiredSampleSize(ds.cv), FatalError);

    // The streamed population statistics give the same cv.
    RunningStats d;
    for (std::size_t w = 0; w < t.size(); ++w)
        d.add(0.0);
    EXPECT_EQ(requiredSampleSizeText(d.coefficientOfVariation()), "-");

    EXPECT_EQ(requiredSampleSizeText(
                  std::numeric_limits<double>::infinity()),
              "-");
    EXPECT_EQ(requiredSampleSizeText(2.5), "50");
}

TEST(RequiredSampleSize, ConfidenceAtRequiredSizeIsHigh)
{
    for (double cv : {0.5, 1.0, 2.0, 5.0, 10.0}) {
        const std::size_t w = requiredSampleSize(cv);
        EXPECT_GE(modelConfidence(cv, w), 0.997);
    }
}

TEST(ClassifyCv, PaperGuidelineRegimes)
{
    // §VII: |cv| < 2 random sampling; 2..10 stratification; > 10
    // equivalent machines.
    EXPECT_EQ(classifyCv(0.5), CvRegime::RandomSampling);
    EXPECT_EQ(classifyCv(-1.9), CvRegime::RandomSampling);
    EXPECT_EQ(classifyCv(2.0), CvRegime::Stratification);
    EXPECT_EQ(classifyCv(-7.5), CvRegime::Stratification);
    EXPECT_EQ(classifyCv(10.0), CvRegime::Stratification);
    EXPECT_EQ(classifyCv(11.0), CvRegime::Equivalent);
    EXPECT_EQ(
        classifyCv(std::numeric_limits<double>::quiet_NaN()),
        CvRegime::Equivalent);
}

TEST(DifferenceStats, MatchesManualComputation)
{
    const std::vector<double> tx = {1.0, 1.0, 1.0, 1.0};
    const std::vector<double> ty = {1.1, 0.9, 1.2, 1.0};
    const auto ds =
        differenceStats(ThroughputMetric::IPCT, tx, ty);
    EXPECT_NEAR(ds.mu, 0.05, 1e-12);
    EXPECT_EQ(ds.n, 4u);
    // sigma of {0.1, -0.1, 0.2, 0.0}: mean 0.05, var 0.0125.
    EXPECT_NEAR(ds.sigma, std::sqrt(0.0125), 1e-12);
    EXPECT_NEAR(ds.cv, std::sqrt(0.0125) / 0.05, 1e-9);
    EXPECT_NEAR(ds.inverseCv(), 0.05 / std::sqrt(0.0125), 1e-9);
}

TEST(DifferenceStats, HsuUsesReciprocalDifferences)
{
    const std::vector<double> tx = {2.0};
    const std::vector<double> ty = {4.0};
    const auto ds = differenceStats(ThroughputMetric::HSU, tx, ty);
    EXPECT_DOUBLE_EQ(ds.mu, 0.25);
}

TEST(DifferenceStats, MismatchedSizesFatal)
{
    const std::vector<double> tx = {1.0, 2.0};
    const std::vector<double> ty = {1.0};
    EXPECT_THROW(differenceStats(ThroughputMetric::IPCT, tx, ty),
                 FatalError);
}

/**
 * CLT validation property (the paper's §V-A experiment in
 * miniature): for a synthetic d(w) population, the empirical
 * probability that a W-sample's mean is positive must match eq. (5).
 */
class CltAgreementTest
    : public ::testing::TestWithParam<std::pair<double, int>>
{};

TEST_P(CltAgreementTest, EmpiricalMatchesModel)
{
    const auto [cv, w] = GetParam();
    const double mu = 0.3;
    const double sigma = cv * mu;
    Rng rng(2024);
    std::vector<double> d(20000);
    for (double &x : d)
        x = mu + sigma * rng.nextGaussian();
    // Re-measure the realized cv (finite-sample effects).
    const DifferenceStats ds = differenceStats(d);

    int wins = 0;
    const int draws = 4000;
    for (int t = 0; t < draws; ++t) {
        double sum = 0.0;
        for (int i = 0; i < w; ++i)
            sum += d[rng.nextInt(d.size())];
        wins += sum > 0.0;
    }
    const double empirical = wins / static_cast<double>(draws);
    const double model =
        modelConfidence(ds.cv, static_cast<std::size_t>(w));
    EXPECT_NEAR(empirical, model, 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    CvAndW, CltAgreementTest,
    ::testing::Values(std::pair{1.0, 4}, std::pair{2.0, 10},
                      std::pair{2.0, 40}, std::pair{5.0, 30},
                      std::pair{5.0, 200}, std::pair{0.5, 2}),
    [](const auto &info) {
        return "cv" +
               std::to_string(
                   static_cast<int>(info.param.first * 10)) +
               "_W" + std::to_string(info.param.second);
    });

} // namespace wsel

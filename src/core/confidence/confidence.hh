/**
 * @file
 * The paper's random-sampling confidence model (Section III).
 *
 * For two microarchitectures X and Y compared on W random workloads,
 * the per-sample difference D is approximately normal (CLT), and the
 * degree of confidence that Y outperforms X is
 *
 *   Pr(D >= 0) = 1/2 * [1 + erf( (1/cv) * sqrt(W/2) )]      (eq. 5)
 *
 * where cv = sigma/mu is the (signed) coefficient of variation of
 * the per-workload difference d(w). Confidence saturates near
 * |(1/cv) sqrt(W/2)| = 2, giving the required sample size
 *
 *   W = 8 * cv^2                                             (eq. 8)
 */

#ifndef WSEL_CORE_CONFIDENCE_CONFIDENCE_HH
#define WSEL_CORE_CONFIDENCE_CONFIDENCE_HH

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/metrics/throughput.hh"
#include "core/sampling/sampling.hh"

namespace wsel
{

/** Moments of the per-workload difference d(w). */
struct DifferenceStats
{
    double mu = 0.0;    ///< mean of d(w)
    double sigma = 0.0; ///< population standard deviation of d(w)
    double cv = 0.0;    ///< sigma / mu (signed; +-inf when mu == 0)
    std::size_t n = 0;  ///< number of workloads

    /** 1/cv = mu/sigma, the paper's Figure 4/5 quantity. */
    double inverseCv() const;
};

/**
 * Compute d(w) for every workload from per-workload throughputs of
 * X and Y under metric @p m (eq. 4 / eq. 7 / footnote 3).
 */
std::vector<double> perWorkloadDifferences(
    ThroughputMetric m, std::span<const double> t_x,
    std::span<const double> t_y);

/** Moments of a precomputed d(w) vector. */
DifferenceStats differenceStats(std::span<const double> d);

/** Convenience: moments of d(w) straight from throughputs. */
DifferenceStats differenceStats(ThroughputMetric m,
                                std::span<const double> t_x,
                                std::span<const double> t_y);

/**
 * Eq. (5) as a function of x = (1/cv) * sqrt(W/2) (Figure 1's
 * x-axis).
 */
double confidenceFromX(double x);

/**
 * Degree of confidence that Y outperforms X with a random sample of
 * @p sample_size workloads (eq. 5). @p cv is signed.
 */
double modelConfidence(double cv, std::size_t sample_size);

/**
 * Required random-sample size W = 8*cv^2 (eq. 8), rounded up and at
 * least 1.
 */
std::size_t requiredSampleSize(double cv);

/**
 * requiredSampleSize(@p cv) as table text, or "-" where @p cv is NaN
 * or infinite: a pair whose d(w) has zero spread and zero mean has
 * cv = 0/0, and no sample size.
 */
std::string requiredSampleSizeText(double cv);

/**
 * The paper's §VII decision thresholds on |cv| estimated from a
 * large approximate-simulation sample.
 */
enum class CvRegime
{
    Equivalent,      ///< |cv| > 10: same average throughput
    RandomSampling,  ///< |cv| < 2: a few tens of random workloads
    Stratification,  ///< 2 <= |cv| <= 10: use workload stratification
};

/** Classify a cv per the paper's practical guideline (§VII). */
CvRegime classifyCv(double cv);

/**
 * A throughput estimate with a CLT confidence interval. The paper's
 * conclusion notes that "defining workload samples that provide
 * accurate speedups with high probability is still open"; this is
 * the standard-statistics building block for that problem.
 */
struct ThroughputEstimate
{
    double value = 0.0;    ///< point estimate of T
    double stderror = 0.0; ///< standard error of the estimate
    double lo = 0.0;       ///< 95% confidence bound (lower)
    double hi = 0.0;       ///< 95% confidence bound (upper)
};

/**
 * Estimate the population throughput from a (possibly stratified)
 * sample with a 95% confidence interval.
 *
 * For A-mean metrics (IPCT, WSU) the estimator is eq. (9) and the
 * variance is the stratified-sampling variance
 * sum_h (N_h/N)^2 s_h^2 / W_h (Cochran). HSU and GSU are handled in
 * their transform domains (reciprocal / log) and mapped back, so
 * their intervals are asymmetric.
 *
 * @param sample The drawn sample (strata + weights).
 * @param m Throughput metric.
 * @param t Per-workload throughputs aligned with the sample's
 *        population indices.
 */
ThroughputEstimate estimateThroughput(const Sample &sample,
                                      ThroughputMetric m,
                                      std::span<const double> t);

} // namespace wsel

#endif // WSEL_CORE_CONFIDENCE_CONFIDENCE_HH

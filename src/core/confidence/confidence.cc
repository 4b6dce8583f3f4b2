#include "core/confidence/confidence.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/logging.hh"
#include "stats/summary.hh"

namespace wsel
{

double
DifferenceStats::inverseCv() const
{
    if (sigma == 0.0) {
        if (mu == 0.0)
            return std::numeric_limits<double>::quiet_NaN();
        return mu > 0.0 ? std::numeric_limits<double>::infinity()
                        : -std::numeric_limits<double>::infinity();
    }
    return mu / sigma;
}

std::vector<double>
perWorkloadDifferences(ThroughputMetric m, std::span<const double> t_x,
                       std::span<const double> t_y)
{
    if (t_x.size() != t_y.size())
        WSEL_FATAL("X and Y cover different workload counts ("
                   << t_x.size() << " vs " << t_y.size() << ")");
    if (t_x.empty())
        WSEL_FATAL("no workloads to difference");
    std::vector<double> d(t_x.size());
    for (std::size_t w = 0; w < t_x.size(); ++w)
        d[w] = perWorkloadDifference(m, t_x[w], t_y[w]);
    return d;
}

DifferenceStats
differenceStats(std::span<const double> d)
{
    const RunningStats s = summarize(d);
    DifferenceStats out;
    out.mu = s.mean();
    out.sigma = s.stddevPopulation();
    out.n = s.count();
    if (out.mu == 0.0) {
        out.cv = out.sigma == 0.0
                     ? std::numeric_limits<double>::quiet_NaN()
                     : std::numeric_limits<double>::infinity();
    } else {
        out.cv = out.sigma / out.mu;
    }
    return out;
}

DifferenceStats
differenceStats(ThroughputMetric m, std::span<const double> t_x,
                std::span<const double> t_y)
{
    const std::vector<double> d = perWorkloadDifferences(m, t_x, t_y);
    return differenceStats(d);
}

double
confidenceFromX(double x)
{
    return 0.5 * (1.0 + std::erf(x));
}

double
modelConfidence(double cv, std::size_t sample_size)
{
    if (sample_size == 0)
        WSEL_FATAL("confidence of an empty sample is undefined");
    if (std::isnan(cv))
        return 0.5;
    if (cv == 0.0) {
        // sigma == 0 with mu != 0: outcome is deterministic; the
        // sign convention puts mu > 0 at confidence 1.
        return 1.0;
    }
    if (std::isinf(cv))
        return 0.5;
    const double x = (1.0 / cv) *
                     std::sqrt(static_cast<double>(sample_size) / 2.0);
    return confidenceFromX(x);
}

std::size_t
requiredSampleSize(double cv)
{
    if (std::isnan(cv) || std::isinf(cv))
        WSEL_FATAL("required sample size undefined for cv=" << cv);
    const double w = 8.0 * cv * cv;
    return static_cast<std::size_t>(std::max(1.0, std::ceil(w)));
}

std::string
requiredSampleSizeText(double cv)
{
    return std::isfinite(cv) ? std::to_string(requiredSampleSize(cv))
                             : "-";
}

namespace
{

/** Map a per-workload value into the metric's CLT domain. */
double
toDomain(ThroughputMetric m, double t)
{
    switch (m) {
      case ThroughputMetric::IPCT:
      case ThroughputMetric::WSU:
        return t;
      case ThroughputMetric::HSU:
        if (t <= 0.0)
            WSEL_FATAL("HSU needs positive throughputs");
        return 1.0 / t;
      case ThroughputMetric::GSU:
        if (t <= 0.0)
            WSEL_FATAL("GSU needs positive throughputs");
        return std::log(t);
    }
    WSEL_PANIC("invalid metric");
}

/** Map a CLT-domain value back to throughput units. */
double
fromDomain(ThroughputMetric m, double x)
{
    switch (m) {
      case ThroughputMetric::IPCT:
      case ThroughputMetric::WSU:
        return x;
      case ThroughputMetric::HSU:
        return 1.0 / x;
      case ThroughputMetric::GSU:
        return std::exp(x);
    }
    WSEL_PANIC("invalid metric");
}

} // namespace

ThroughputEstimate
estimateThroughput(const Sample &sample, ThroughputMetric m,
                   std::span<const double> t)
{
    if (sample.strata.empty())
        WSEL_FATAL("empty sample");

    // Work in the metric's CLT domain: plain values for A-mean
    // metrics, reciprocals for HSU, logs for GSU. In that domain
    // every metric's estimator is a weighted arithmetic mean, so
    // one variance formula serves all.
    double wsum = 0.0;
    for (const auto &st : sample.strata) {
        if (!st.indices.empty())
            wsum += st.weight;
    }
    if (wsum <= 0.0)
        WSEL_FATAL("sample has no weighted strata");

    double mean = 0.0;
    double var = 0.0;
    for (const auto &st : sample.strata) {
        if (st.indices.empty())
            continue;
        RunningStats s;
        for (std::size_t idx : st.indices) {
            if (idx >= t.size())
                WSEL_FATAL("sample index " << idx
                           << " beyond throughput vector");
            s.add(toDomain(m, t[idx]));
        }
        const double wh = st.weight / wsum;
        mean += wh * s.mean();
        // Stratified variance: (N_h/N)^2 s_h^2 / W_h, with the
        // single-observation stratum contributing its population
        // variance of 0 (no better information available).
        const double sh2 =
            s.count() >= 2 ? s.varianceSample() : 0.0;
        var += wh * wh * sh2 / static_cast<double>(s.count());
    }

    ThroughputEstimate est;
    const double se = std::sqrt(var);
    est.value = fromDomain(m, mean);
    est.lo = fromDomain(m, mean - 1.96 * se);
    est.hi = fromDomain(m, mean + 1.96 * se);
    if (est.lo > est.hi)
        std::swap(est.lo, est.hi); // reciprocal domain flips order
    est.stderror = se;
    return est;
}

CvRegime
classifyCv(double cv)
{
    const double a = std::abs(cv);
    if (std::isnan(cv) || a > 10.0)
        return CvRegime::Equivalent;
    if (a < 2.0)
        return CvRegime::RandomSampling;
    return CvRegime::Stratification;
}

} // namespace wsel

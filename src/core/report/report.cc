#include "core/report/report.hh"

#include <fstream>
#include <ostream>

#include "core/confidence/confidence.hh"
#include "core/sampling/sampling.hh"
#include "stats/logging.hh"

namespace wsel
{

namespace
{

const char *
regimeName(CvRegime r)
{
    switch (r) {
      case CvRegime::Equivalent:
        return "equivalent (|cv| > 10)";
      case CvRegime::RandomSampling:
        return "random sampling (|cv| < 2)";
      case CvRegime::Stratification:
        return "workload stratification";
    }
    return "?";
}

/** A whole-list sample (single stratum, weight 1). */
Sample
wholeSample(std::size_t n)
{
    Sample s;
    s.strata.resize(1);
    s.strata[0].weight = 1.0;
    s.strata[0].indices.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        s.strata[0].indices[i] = i;
    return s;
}

} // namespace

void
writeMarkdownReport(const ReportInput &input, std::ostream &os)
{
    if (input.configs.empty())
        WSEL_FATAL("report needs at least one configuration");
    if (input.metrics.empty())
        WSEL_FATAL("report needs at least one metric block");
    for (const auto &mb : input.metrics) {
        if (mb.t.size() != input.configs.size())
            WSEL_FATAL("metric block has " << mb.t.size()
                       << " configs, expected "
                       << input.configs.size());
        for (const auto &v : mb.t) {
            if (v.size() != mb.t.front().size())
                WSEL_FATAL("ragged throughput vectors in report "
                           "input");
        }
    }

    const std::size_t n_workloads =
        input.metrics.front().t.front().size();
    os << "# " << input.title << "\n\n";
    os << input.configs.size() << " configurations, " << n_workloads
       << " workloads.\n";

    for (const auto &mb : input.metrics) {
        os << "\n## " << toString(mb.metric) << "\n\n";

        // Per-config estimates with confidence intervals.
        os << "| config | T | 95% CI |\n|---|---|---|\n";
        const Sample whole = wholeSample(n_workloads);
        os.precision(4);
        os.setf(std::ios::fixed);
        for (std::size_t c = 0; c < input.configs.size(); ++c) {
            const auto est =
                estimateThroughput(whole, mb.metric, mb.t[c]);
            os << "| " << input.configs[c] << " | " << est.value
               << " | [" << est.lo << ", " << est.hi << "] |\n";
        }

        // Pairwise analysis.
        os << "\n| pair | mean d(w) | cv | 1/cv | eq.(8) W | "
              "regime | strata |\n"
              "|---|---|---|---|---|---|---|\n";
        for (std::size_t a = 0; a < input.configs.size(); ++a) {
            for (std::size_t b = a + 1; b < input.configs.size();
                 ++b) {
                const auto d = perWorkloadDifferences(
                    mb.metric, mb.t[a], mb.t[b]);
                const DifferenceStats ds = differenceStats(d);
                WorkloadStrataConfig cfg{input.tsd, input.wt,
                                         Allocation::Proportional};
                const std::size_t strata =
                    countWorkloadStrata(d, cfg);
                os << "| " << input.configs[b] << ">"
                   << input.configs[a] << " | ";
                os.precision(6);
                os << ds.mu << " | ";
                os.precision(3);
                os << ds.cv << " | " << ds.inverseCv() << " | "
                   << requiredSampleSizeText(ds.cv) << " | "
                   << regimeName(classifyCv(ds.cv)) << " | "
                   << strata << " |\n";
            }
        }
    }
    os << "\nGenerated by wsel (eq. 5/8/9 of Velasquez et al., "
          "ISPASS 2013).\n";
}

void
writeMarkdownReport(const ReportInput &input, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        WSEL_FATAL("cannot open '" << path << "' for writing");
    writeMarkdownReport(input, os);
}

} // namespace wsel

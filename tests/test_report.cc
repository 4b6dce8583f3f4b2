/**
 * @file
 * Tests for the markdown report generator.
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/report/report.hh"
#include "stats/logging.hh"
#include "stats/rng.hh"
#include "test_util.hh"

namespace wsel
{

namespace
{

ReportInput
sampleInput()
{
    ReportInput in;
    in.title = "unit test study";
    in.configs = {"LRU", "DIP"};
    Rng rng(5);
    ReportInput::MetricBlock mb;
    mb.metric = ThroughputMetric::IPCT;
    mb.t.resize(2);
    for (int w = 0; w < 300; ++w) {
        const double base = 1.0 + 0.2 * rng.nextGaussian();
        mb.t[0].push_back(std::max(base, 0.1));
        mb.t[1].push_back(std::max(base + 0.05, 0.1));
    }
    in.metrics.push_back(mb);
    return in;
}

} // namespace

TEST(Report, ContainsExpectedSections)
{
    std::ostringstream os;
    writeMarkdownReport(sampleInput(), os);
    const std::string md = os.str();
    EXPECT_NE(md.find("# unit test study"), std::string::npos);
    EXPECT_NE(md.find("## IPCT"), std::string::npos);
    EXPECT_NE(md.find("DIP>LRU"), std::string::npos);
    EXPECT_NE(md.find("95% CI"), std::string::npos);
    EXPECT_NE(md.find("eq.(8)"), std::string::npos);
    EXPECT_NE(md.find("regime"), std::string::npos);
}

TEST(Report, PairDirectionIsSecondOverFirst)
{
    // DIP is constructed strictly better, so DIP>LRU must show a
    // positive mean d(w) in the table row.
    std::ostringstream os;
    writeMarkdownReport(sampleInput(), os);
    const std::string md = os.str();
    const auto pos = md.find("DIP>LRU | ");
    ASSERT_NE(pos, std::string::npos);
    const std::string after =
        md.substr(pos + std::string("DIP>LRU | ").size(), 12);
    EXPECT_EQ(after.find('-'), std::string::npos)
        << "mean d should be positive, got: " << after;
}

TEST(Report, FileWrapperWrites)
{
    const auto path = test::scratchPath("wsel_report_test.md");
    writeMarkdownReport(sampleInput(), path.string());
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_GT(ss.str().size(), 200u);
    std::filesystem::remove(path);
}

TEST(Report, RejectsMalformedInput)
{
    ReportInput empty;
    std::ostringstream os;
    EXPECT_THROW(writeMarkdownReport(empty, os), FatalError);

    ReportInput in = sampleInput();
    in.metrics[0].t[1].pop_back(); // ragged
    EXPECT_THROW(writeMarkdownReport(in, os), FatalError);

    ReportInput in2 = sampleInput();
    in2.metrics[0].t.pop_back(); // config count mismatch
    EXPECT_THROW(writeMarkdownReport(in2, os), FatalError);
}

TEST(Report, MultipleMetricsRenderAllBlocks)
{
    ReportInput in = sampleInput();
    ReportInput::MetricBlock hsu = in.metrics[0];
    hsu.metric = ThroughputMetric::HSU;
    in.metrics.push_back(hsu);
    std::ostringstream os;
    writeMarkdownReport(in, os);
    EXPECT_NE(os.str().find("## HSU"), std::string::npos);
}

} // namespace wsel

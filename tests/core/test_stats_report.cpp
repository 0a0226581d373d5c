#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>

#include "core/stats_report.hpp"

namespace dr
{
namespace
{

class StatsReportTest : public ::testing::Test
{
  protected:
    StatsReportTest()
    {
        SystemConfig cfg = SystemConfig::makePaper();
        cfg.mechanism = Mechanism::DelegatedReplies;
        cfg.warmupCycles = 2000;
        cfg.simCycles = 5000;
        system = std::make_unique<HeteroSystem>(cfg, "HS", "bodytrack");
        system->run();
        report = std::make_unique<StatsReport>(
            StatsReport::capture(*system, cfg.simCycles));
    }

    std::unique_ptr<HeteroSystem> system;
    std::unique_ptr<StatsReport> report;
};

TEST_F(StatsReportTest, CapturesHeadlineMetrics)
{
    EXPECT_TRUE(report->has("sim.gpuIpc"));
    EXPECT_GT(report->value("sim.gpuIpc"), 0.0);
    EXPECT_TRUE(report->has("sim.memBlockingRate"));
    EXPECT_TRUE(report->has("sim.cpuLatency"));
}

TEST_F(StatsReportTest, CapturesEveryComponent)
{
    EXPECT_TRUE(report->has("gpu0.instructions"));
    EXPECT_TRUE(report->has("gpu39.instructions"));
    EXPECT_TRUE(report->has("cpu0.retired"));
    EXPECT_TRUE(report->has("cpu15.retired"));
    EXPECT_TRUE(report->has("mem0.delegations"));
    EXPECT_TRUE(report->has("mem7.blockingRate"));
    EXPECT_TRUE(report->has("net.request.packetsInjected"));
    EXPECT_TRUE(report->has("net.reply.packetsDelivered"));
}

TEST_F(StatsReportTest, SumAggregatesPrefixes)
{
    double manual = 0.0;
    for (int i = 0; i < system->gpuCoreCount(); ++i)
        manual += static_cast<double>(
            system->gpuCore(i).stats().instructions.value());
    // sum over "gpuN." includes other stats too, so compare against a
    // tighter filter: every per-core instruction count is present.
    double viaReport = 0.0;
    for (int i = 0; i < system->gpuCoreCount(); ++i) {
        std::ostringstream path;
        path << "gpu" << i << ".instructions";
        viaReport += report->value(path.str());
    }
    EXPECT_DOUBLE_EQ(viaReport, manual);
    EXPECT_GE(report->sum("gpu0."), report->value("gpu0.instructions"));
}

TEST_F(StatsReportTest, TextFormatHasOneLinePerEntry)
{
    std::ostringstream out;
    report->writeText(out);
    std::size_t lines = 0;
    for (const char c : out.str())
        lines += c == '\n';
    EXPECT_EQ(lines, report->entries().size());
}

TEST_F(StatsReportTest, CsvHasHeader)
{
    std::ostringstream out;
    report->writeCsv(out);
    EXPECT_EQ(out.str().rfind("stat,value\n", 0), 0u);
}

TEST_F(StatsReportTest, JsonIsWellFormedEnough)
{
    std::ostringstream out;
    report->writeJson(out);
    const std::string s = out.str();
    EXPECT_EQ(s.front(), '{');
    EXPECT_EQ(s[s.size() - 2], '}');
    // Every entry quoted, no trailing comma before the brace.
    EXPECT_NE(s.find("\"sim.gpuIpc\":"), std::string::npos);
    EXPECT_EQ(s.find(",\n}"), std::string::npos);
}

TEST_F(StatsReportTest, UnknownPathIsFatal)
{
    EXPECT_DEATH((void)report->value("gpu0.flux"), "unknown path");
}

/** The text after `key` up to the end of its line. */
std::string
valueText(const std::string &out, const std::string &key)
{
    const auto at = out.find(key);
    if (at == std::string::npos)
        return "";
    const auto begin = at + key.size();
    return out.substr(begin, out.find('\n', begin) - begin);
}

TEST(StatsReportFormat, CountersAndRatesRoundTripExactly)
{
    // A counter above 10^7 lost its low digits at the stream's default
    // 6-digit precision (12345678901 printed as 1.23457e+10).
    const std::uint64_t count = 12345678901ULL;
    const double rate = 0.1 + 0.2;
    StatsReport rep;
    rep.add("net.reply.flitsDelivered", static_cast<double>(count));
    rep.add("sim.rate", rate);

    std::ostringstream text, csv, json;
    rep.writeText(text);
    rep.writeCsv(csv);
    rep.writeJson(json);
    for (const auto &[out, countKey, rateKey] :
         {std::tuple{text.str(), std::string("flitsDelivered "),
                     std::string("sim.rate ")},
          std::tuple{csv.str(), std::string("flitsDelivered,"),
                     std::string("sim.rate,")},
          std::tuple{json.str(), std::string("flitsDelivered\": "),
                     std::string("sim.rate\": ")}}) {
        std::string c = valueText(out, countKey);
        if (!c.empty() && c.back() == ',')
            c.pop_back();
        EXPECT_EQ(c, "12345678901") << out;
        EXPECT_EQ(std::stoull(c), count);
        EXPECT_EQ(std::stod(valueText(out, rateKey)), rate) << out;
    }
}

TEST(StatsReportFormat, JsonWritesNonFiniteAsNull)
{
    StatsReport rep;
    rep.add("a", std::nan(""));
    rep.add("b", HUGE_VAL);
    std::ostringstream json;
    rep.writeJson(json);
    EXPECT_EQ(json.str(), "{\n  \"a\": null,\n  \"b\": null\n}\n");
}

} // namespace
} // namespace dr

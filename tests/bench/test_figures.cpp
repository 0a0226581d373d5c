/**
 * @file
 * The figure driver (bench/figures.hpp): two passes over fake figures
 * with a fake point runner, so each property shows without a chip
 * simulation, plus one run of real simulations on four jobs that must
 * match the serial runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/log.hpp"
#include "figures.hpp"

namespace dr
{
namespace
{

/** Set an environment variable for one scope, then restore it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (old_)
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

/** Fake point i: a config told apart by its cycle count. */
SystemConfig
fakePoint(int i)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.simCycles = 1000 + i;
    return cfg;
}

/** A table of `count` fake points from `first` on, and one synthetic. */
void
fakeTable(Sweep &s, const char *name, int first, int count)
{
    s.print("=== %s ===\n", name);
    for (int i = first; i < first + count; ++i) {
        s.print("%s %d: %.0f\n", name, i,
                s.run(fakePoint(i), "HS", "vips").gpuIpc);
    }
    s.print("%s synthetic: %.2f\n", name,
            s.run(SyntheticPoint{TopologyKind::Mesh, 16, 4, 4,
                                 TrafficPattern::UniformRandom, 0.01 * first,
                                 5, 100})
                .avgLatency);
}

/** Listed out of name order: the driver sorts them. */
const std::vector<Figure> kFigures = {
    {"charlie", [](Sweep &s) { fakeTable(s, "charlie", 0, 4); }},
    {"alpha", [](Sweep &s) { fakeTable(s, "alpha", 4, 4); }},
    {"bravo", [](Sweep &s) { fakeTable(s, "bravo", 8, 4); }},
};

/**
 * Results that name their point. Earlier points sleep longer, so on
 * several jobs they finish out of request order.
 */
PointRunner
fakeRunner(std::atomic<int> &calls)
{
    return [&calls](const SweepPoint &point) -> SweepResult {
        ++calls;
        if (const auto *p = std::get_if<SyntheticPoint>(&point)) {
            SyntheticResult r;
            r.avgLatency = p->injectionRate;
            return r;
        }
        const Cycle cycles = std::get<ChipPoint>(point).cfg.simCycles;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2 * (16 - cycles % 16)));
        RunResults r;
        r.gpuIpc = static_cast<double>(cycles);
        return r;
    };
}

/** figuresMain() on `args`. */
int
callFigures(std::vector<std::string> args, const std::vector<Figure> &figures,
            const PointRunner &runner, int cpus = 8)
{
    args.insert(args.begin(), "figures");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return figuresMain(static_cast<int>(argv.size()), argv.data(), figures,
                       runner, cpus);
}

/** callFigures(), which must succeed; returns what it printed to stderr. */
std::string
runFigures(std::vector<std::string> args, const std::vector<Figure> &figures,
           const PointRunner &runner, int cpus = 8)
{
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(callFigures(std::move(args), figures, runner, cpus), 0);
    return ::testing::internal::GetCapturedStderr();
}

/** A fresh directory for this test's tables. */
std::filesystem::path
outDir(const char *tag)
{
    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        (std::string("figures_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + tag);
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Figures, OutputBytesDoNotDependOnJobs)
{
    ScopedEnv threads("DR_NOC_THREADS", "1");
    std::atomic<int> calls{0};
    const auto serial = outDir("j1");
    const auto pooled = outDir("j3");
    runFigures({"-j", "1", "-o", serial.string()}, kFigures,
               fakeRunner(calls));
    runFigures({"-j", "3", "-o", pooled.string()}, kFigures,
               fakeRunner(calls));
    for (const char *file :
         {"alpha.txt", "bravo.txt", "charlie.txt", "bench_output.txt"}) {
        EXPECT_FALSE(slurp(serial / file).empty()) << file;
        EXPECT_EQ(slurp(serial / file), slurp(pooled / file)) << file;
    }
    EXPECT_NE(slurp(serial / "alpha.txt").find("alpha 7: 1007\n"),
              std::string::npos);
}

TEST(Figures, CombinedOutputIsTheAlphabeticalConcatenation)
{
    std::atomic<int> calls{0};
    const auto dir = outDir("out");
    runFigures({"-j", "3", "-o", dir.string()}, kFigures,
               fakeRunner(calls));
    EXPECT_EQ(slurp(dir / "bench_output.txt"),
              slurp(dir / "alpha.txt") + slurp(dir / "bravo.txt") +
                  slurp(dir / "charlie.txt"));
    EXPECT_EQ(calls, 15);  // 12 chip points and 3 synthetic
}

TEST(Figures, NamedFiguresRunAloneAndPrintInNameOrder)
{
    std::atomic<int> calls{0};
    const auto dir = outDir("out");
    runFigures({"-o", dir.string(), "bravo"}, kFigures, fakeRunner(calls));
    EXPECT_EQ(calls, 5);
    EXPECT_TRUE(std::filesystem::exists(dir / "bravo.txt"));
    EXPECT_FALSE(std::filesystem::exists(dir / "alpha.txt"));
    EXPECT_EQ(slurp(dir / "bench_output.txt"), slurp(dir / "bravo.txt"));

    // Without -o the tables go to stdout, in name order.
    ::testing::internal::CaptureStdout();
    runFigures({"charlie", "bravo"}, kFigures, fakeRunner(calls));
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.find("=== bravo ==="), 0u);
    EXPECT_NE(out.find("=== charlie ==="), std::string::npos);
    EXPECT_EQ(out.find("alpha"), std::string::npos);
}

TEST(Figures, JobsTimesThreadsFitTheCpus)
{
    std::atomic<int> calls{0};
    const auto run = [&](const char *jobs, int cpus, const char *threads) {
        ScopedEnv env("DR_NOC_THREADS", threads);
        ::testing::internal::CaptureStdout();
        const std::string log = runFigures({"-j", jobs, "charlie"}, kFigures,
                                           fakeRunner(calls), cpus);
        ::testing::internal::GetCapturedStdout();
        return log;
    };
    std::string log = run("4", 4, "2");
    EXPECT_NE(log.find("lowering -j 4 to 2"), std::string::npos) << log;
    EXPECT_EQ(log.find("lowering"), log.rfind("lowering")) << log;
    EXPECT_NE(log.find("-j 2,"), std::string::npos) << log;

    log = run("3", 4, "8");
    EXPECT_NE(log.find("lowering -j 3 to 1"), std::string::npos) << log;
    EXPECT_NE(log.find("-j 1,"), std::string::npos) << log;

    log = run("2", 4, "2");
    EXPECT_EQ(log.find("lowering"), std::string::npos) << log;
    EXPECT_NE(log.find("-j 2,"), std::string::npos) << log;
}

TEST(Figures, PointSharedByTwoFiguresRunsOnce)
{
    std::atomic<int> calls{0};
    const std::vector<Figure> figures = {
        {"one", [](Sweep &s) { s.run(fakePoint(0), "HS", "vips"); }},
        {"two", [](Sweep &s) { s.run(fakePoint(0), "HS", "vips"); }},
    };
    const std::string log =
        runFigures({"-j", "2"}, figures, fakeRunner(calls));
    EXPECT_EQ(calls, 1);
    EXPECT_NE(log.find("2 chip points requested, 1 distinct"),
              std::string::npos)
        << log;
}

TEST(FiguresDeathTest, FailingPointFailsTheRun)
{
    std::atomic<int> calls{0};
    const PointRunner fake = fakeRunner(calls);
    const PointRunner runner = [&fake](const SweepPoint &point) {
        const auto *chip = std::get_if<ChipPoint>(&point);
        if (chip && chip->cfg.simCycles == 1002)
            panic("point ", chip->cfg.simCycles, " failed");
        return fake(point);
    };
    EXPECT_DEATH(callFigures({"-j", "3"}, kFigures, runner),
                 "panic: point 1002 failed");
}

TEST(FiguresDeathTest, SecondPassMissPanicsNamingTheFigure)
{
    std::atomic<int> calls{0};
    const std::vector<Figure> figures = {{"fickle", [](Sweep &s) {
        static int passes = 0;
        s.run(fakePoint(passes++), "HS", "vips");
    }}};
    EXPECT_DEATH(callFigures({}, figures, fakeRunner(calls)),
                 "figure fickle asked its second pass for a point");
}

SystemConfig
shortRun(Mechanism mechanism)
{
    SystemConfig cfg = benchConfig(mechanism);
    cfg.warmupCycles = 500;
    cfg.simCycles = 1500;
    return cfg;
}

void
printChips(Sweep *s, std::ostream *serial)
{
    for (const char *gpu : {"HS", "2DCON"}) {
        for (const Mechanism m :
             {Mechanism::Baseline, Mechanism::DelegatedReplies}) {
            const RunResults r = s ? s->run(shortRun(m), gpu, "vips")
                                   : runWorkload(shortRun(m), gpu, "vips");
            char line[160];
            std::snprintf(line, sizeof(line), "%s %s %.17g %.17g %llu %llu\n",
                          gpu, mechanismName(m), r.gpuIpc, r.cpuIpc,
                          static_cast<unsigned long long>(r.l1Misses),
                          static_cast<unsigned long long>(
                              r.missesWithRemoteCopy));
            if (s)
                s->print("%s", line);
            else
                *serial << line;
        }
    }
}

/**
 * Four chips simulated at once in one process give what they give one
 * after another.
 */
TEST(Figures, SimulatedPointsMatchSerialRuns)
{
    ScopedEnv threads("DR_NOC_THREADS", "1");
    std::ostringstream serial;
    printChips(nullptr, &serial);
    ::testing::internal::CaptureStdout();
    const std::string log = runFigures(
        {"-j", "4"}, {{"chips", [](Sweep &s) { printChips(&s, nullptr); }}},
        simulatePoint, 4);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), serial.str());
    EXPECT_NE(log.find("4 chip points requested, 4 distinct"),
              std::string::npos)
        << log;
}

} // namespace
} // namespace dr

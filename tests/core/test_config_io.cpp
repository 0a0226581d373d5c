#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include "core/config_io.hpp"
#include "core/experiment.hpp"

namespace dr
{
namespace
{

TEST(ConfigIo, AppliesScalarOptions)
{
    SystemConfig cfg = SystemConfig::makePaper();
    applyConfigOption(cfg, "gpu.l1SizeKB", "64");
    applyConfigOption(cfg, "noc.bandwidthScale", "2.0");
    applyConfigOption(cfg, "sim.cycles", "12345");
    EXPECT_EQ(cfg.gpu.l1SizeKB, 64);
    EXPECT_DOUBLE_EQ(cfg.noc.bandwidthScale, 2.0);
    EXPECT_EQ(cfg.simCycles, 12345u);
}

TEST(ConfigIo, AppliesEnumOptions)
{
    SystemConfig cfg = SystemConfig::makePaper();
    applyConfigOption(cfg, "mechanism", "delegated-replies");
    applyConfigOption(cfg, "layout", "B");
    applyConfigOption(cfg, "noc.topology", "dragonfly");
    applyConfigOption(cfg, "noc.requestRouting", "DyXY");
    applyConfigOption(cfg, "gpu.l1Org", "dyneb");
    applyConfigOption(cfg, "gpu.ctaSchedule", "distributed");
    EXPECT_EQ(cfg.mechanism, Mechanism::DelegatedReplies);
    EXPECT_EQ(cfg.layout, ChipLayout::LayoutB);
    EXPECT_EQ(cfg.noc.topology, TopologyKind::Dragonfly);
    EXPECT_EQ(cfg.noc.requestRouting, RoutingKind::DyXY);
    EXPECT_EQ(cfg.gpu.l1Org, L1Organization::DynEB);
    EXPECT_EQ(cfg.gpu.ctaSchedule, CtaSchedule::Distributed);
}

TEST(ConfigIo, AppliesNocThreads)
{
    SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_EQ(cfg.noc.threads, 0);  // auto (DR_NOC_THREADS or 1)
    applyConfigOption(cfg, "noc.threads", "4");
    EXPECT_EQ(cfg.noc.threads, 4);
    cfg.validate();
    cfg.noc.threads = -1;
    EXPECT_DEATH(cfg.validate(), "noc.threads");
}

TEST(ConfigIo, AppliesBooleans)
{
    SystemConfig cfg = SystemConfig::makePaper();
    applyConfigOption(cfg, "dr.delegateAlways", "true");
    applyConfigOption(cfg, "noc.sharedPhysical", "1");
    EXPECT_TRUE(cfg.dr.delegateAlways);
    EXPECT_TRUE(cfg.noc.sharedPhysical);
    applyConfigOption(cfg, "dr.delegateAlways", "false");
    EXPECT_FALSE(cfg.dr.delegateAlways);
}

TEST(ConfigIo, AppliesVnetOptions)
{
    SystemConfig cfg = SystemConfig::makePaper();
    applyConfigOption(cfg, "noc.vnets", "true");
    applyConfigOption(cfg, "noc.vnetRequestVcs", "2");
    applyConfigOption(cfg, "noc.vnetForwardVcs", "2");
    applyConfigOption(cfg, "noc.vnetReplyVcs", "3");
    applyConfigOption(cfg, "noc.vnetDelegatedVcs", "1");
    EXPECT_TRUE(cfg.noc.vnets);
    EXPECT_EQ(cfg.noc.vnetRequestVcs, 2);
    EXPECT_EQ(cfg.noc.vnetForwardVcs, 2);
    EXPECT_EQ(cfg.noc.vnetReplyVcs, 3);
    EXPECT_EQ(cfg.noc.vnetDelegatedVcs, 1);
    cfg.noc.vcsPerNet = 4;
    cfg.validate();
}

TEST(ConfigIo, ParsesStreamWithCommentsAndBlanks)
{
    SystemConfig cfg = SystemConfig::makePaper();
    std::istringstream in(
        "# an experiment\n"
        "mechanism = rp   # probes\n"
        "\n"
        "  gpu.frqEntries = 16\n");
    parseConfig(cfg, in);
    EXPECT_EQ(cfg.mechanism, Mechanism::RealisticProbing);
    EXPECT_EQ(cfg.gpu.frqEntries, 16);
}

TEST(ConfigIo, AppliesDebugOptions)
{
    SystemConfig cfg = SystemConfig::makePaper();
    applyConfigOption(cfg, "debug.watchdogCycles", "50000");
    applyConfigOption(cfg, "debug.watchdogAbort", "false");
    applyConfigOption(cfg, "debug.mshrLeakCycles", "123456");
    applyConfigOption(cfg, "debug.sweepCycles", "1024");
    EXPECT_EQ(cfg.debug.watchdogCycles, 50000u);
    EXPECT_FALSE(cfg.debug.watchdogAbort);
    EXPECT_EQ(cfg.debug.mshrLeakCycles, 123456u);
    EXPECT_EQ(cfg.debug.sweepCycles, 1024u);
}

TEST(ConfigIo, RejectsTrailingGarbageOnNumbers)
{
    SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_DEATH(applyConfigOption(cfg, "gpu.l1SizeKB", "64k"),
                 "expects an integer");
    EXPECT_DEATH(applyConfigOption(cfg, "noc.bandwidthScale", "1.5x"),
                 "expects a number");
    EXPECT_DEATH(applyConfigOption(cfg, "gpu.l1SizeKB", ""),
                 "expects an integer");
}

TEST(ConfigIo, RejectsNegativeCycleCounts)
{
    SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_DEATH(applyConfigOption(cfg, "debug.watchdogCycles", "-5"),
                 "non-negative cycle count");
    EXPECT_DEATH(applyConfigOption(cfg, "sim.cycles", "-1"),
                 "non-negative cycle count");
}

TEST(ConfigIoDeath, UnknownKeyIsFatal)
{
    SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_DEATH(applyConfigOption(cfg, "gpu.l1SizeMB", "1"),
                 "unknown option");
}

TEST(ConfigIoDeath, BadIntegerIsFatal)
{
    SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_DEATH(applyConfigOption(cfg, "gpu.l1SizeKB", "lots"),
                 "expects an integer");
}

TEST(ConfigIoDeath, BadEnumIsFatal)
{
    SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_DEATH(applyConfigOption(cfg, "noc.topology", "torus"),
                 "unknown topology");
}

TEST(ConfigIoDeath, MissingEqualsIsFatal)
{
    SystemConfig cfg = SystemConfig::makePaper();
    std::istringstream in("mechanism baseline\n");
    EXPECT_DEATH(parseConfig(cfg, in), "no '='");
}

TEST(ConfigIo, RoundTripsEveryOption)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mechanism = Mechanism::DelegatedReplies;
    cfg.layout = ChipLayout::LayoutC;
    cfg.noc.topology = TopologyKind::FlattenedButterfly;
    cfg.noc.requestRouting = RoutingKind::Hare;
    cfg.noc.bandwidthScale = 1.5;
    cfg.noc.sharedPhysical = true;
    cfg.gpu.l1Org = L1Organization::DcL1;
    cfg.gpu.ctaSchedule = CtaSchedule::Distributed;
    cfg.dr.delegateAlways = true;
    cfg.rp.probeCount = 4;
    cfg.seed = 99;

    std::ostringstream out;
    writeConfig(cfg, out);
    SystemConfig parsed = SystemConfig::makePaper();
    std::istringstream in(out.str());
    parseConfig(parsed, in);

    std::ostringstream out2;
    writeConfig(parsed, out2);
    EXPECT_EQ(out.str(), out2.str());
    EXPECT_EQ(parsed.mechanism, cfg.mechanism);
    EXPECT_EQ(parsed.layout, cfg.layout);
    EXPECT_EQ(parsed.noc.topology, cfg.noc.topology);
    EXPECT_EQ(parsed.rp.probeCount, cfg.rp.probeCount);
    EXPECT_DOUBLE_EQ(parsed.noc.bandwidthScale, cfg.noc.bandwidthScale);
}

TEST(ConfigIo, AppliesChipletOptions)
{
    SystemConfig cfg = SystemConfig::makePaper();
    applyConfigOption(cfg, "noc.topology", "chiplet-mesh");
    applyConfigOption(cfg, "noc.chipletsX", "2");
    applyConfigOption(cfg, "noc.chipletsY", "2");
    applyConfigOption(cfg, "noc.chipletSubW", "4");
    applyConfigOption(cfg, "noc.chipletSubH", "4");
    applyConfigOption(cfg, "noc.chipletLinksPerEdge", "2");
    applyConfigOption(cfg, "noc.interposerChannelBytes", "8");
    applyConfigOption(cfg, "noc.interposerLatency", "6");
    applyConfigOption(cfg, "noc.requestRouting", "chiplet");
    EXPECT_EQ(cfg.noc.topology, TopologyKind::ChipletMesh);
    EXPECT_EQ(cfg.noc.chipletsX, 2);
    EXPECT_EQ(cfg.noc.chipletLinksPerEdge, 2);
    EXPECT_EQ(cfg.noc.interposerChannelBytes, 8);
    EXPECT_EQ(cfg.noc.interposerLatency, 6);
    EXPECT_EQ(cfg.noc.requestRouting, RoutingKind::ChipletHierarchical);
    // 16-byte flits over 8-byte interposer channels: 2 cycles/flit.
    EXPECT_EQ(cfg.noc.interposerSerializationCycles(), 2);
    cfg.noc.vcsPerNet = 3;
    cfg.validate();
}

TEST(ConfigIo, AppliesMemPlacementList)
{
    SystemConfig cfg = SystemConfig::makePaper();
    applyConfigOption(cfg, "mem.placement", "0, 9,18,27,36,45,54,63");
    ASSERT_EQ(cfg.mem.placement.size(), 8u);
    EXPECT_EQ(cfg.mem.placement.front(), 0);
    EXPECT_EQ(cfg.mem.placement.back(), 63);
    cfg.validate();
    applyConfigOption(cfg, "mem.placement", "");
    EXPECT_TRUE(cfg.mem.placement.empty());
}

TEST(ConfigIo, RoundTripsChipletAndPlacement)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.noc.topology = TopologyKind::ChipletMesh;
    cfg.noc.chipletsX = 2;
    cfg.noc.chipletsY = 2;
    cfg.noc.chipletSubW = 4;
    cfg.noc.chipletSubH = 4;
    cfg.noc.chipletLinksPerEdge = 1;
    cfg.noc.interposerChannelBytes = 8;
    cfg.noc.interposerLatency = 2;
    cfg.mem.placement = {3, 11, 19, 27, 35, 43, 51, 59};

    std::ostringstream out;
    writeConfig(cfg, out);
    SystemConfig parsed = SystemConfig::makePaper();
    std::istringstream in(out.str());
    parseConfig(parsed, in);

    std::ostringstream out2;
    writeConfig(parsed, out2);
    EXPECT_EQ(out.str(), out2.str());
    EXPECT_EQ(parsed.noc.topology, TopologyKind::ChipletMesh);
    EXPECT_EQ(parsed.noc.chipletLinksPerEdge, 1);
    EXPECT_EQ(parsed.mem.placement, cfg.mem.placement);
}

TEST(ConfigIoDeath, ChipletDimensionMismatchIsFatal)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.noc.topology = TopologyKind::ChipletMesh;
    cfg.noc.chipletsX = 2;
    cfg.noc.chipletsY = 2;
    cfg.noc.chipletSubW = 3;  // 2*3 != meshWidth 8
    cfg.noc.chipletSubH = 4;
    EXPECT_DEATH(cfg.validate(), "does not compose");
}

TEST(ConfigIoDeath, MemPlacementDuplicateIsFatal)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mem.placement = {1, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_DEATH(cfg.validate(), "listed twice");
}

/**
 * Environment knobs parse as whole numbers in range or die naming the
 * variable — "4x" is not 4 and "-1" is not the default. An empty value
 * still means unset (CI's release legs export DR_NOC_THREADS="").
 */
struct EnvKnob
{
    const char *name;
    void (*read)();
};

const EnvKnob kEnvKnobs[] = {
    {"DR_NOC_THREADS",
     [] { HeteroSystem sys(SystemConfig::makeSmall(), "HS", "vips"); }},
    {"DR_BENCH_THREADS", [] { (void)benchConfig(Mechanism::Baseline); }},
    {"DR_BENCH_CYCLES", [] { (void)benchCycles(100); }},
};

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

TEST(EnvKnobDeath, MalformedValuesAreFatal)
{
    for (const EnvKnob &knob : kEnvKnobs) {
        for (const char *bad : {"4x", "-1", "0", " 4", "abc"}) {
            EXPECT_DEATH(
                {
                    setenv(knob.name, bad, 1);
                    knob.read();
                },
                std::string(knob.name) + " must be a whole number in")
                << knob.name << "='" << bad << "'";
        }
    }
}

TEST(EnvKnob, EmptyValueMeansUnset)
{
    for (const EnvKnob &knob : kEnvKnobs) {
        const ScopedEnv env(knob.name, "");
        knob.read();
    }
    const ScopedEnv cycles("DR_BENCH_CYCLES", "");
    EXPECT_EQ(benchCycles(123), 123u);
    const ScopedEnv threads("DR_BENCH_THREADS", "");
    EXPECT_EQ(benchConfig(Mechanism::Baseline).noc.threads, 0);
}

TEST(EnvKnob, WholeNumbersInRangeApply)
{
    const ScopedEnv cycles("DR_BENCH_CYCLES", "4000");
    EXPECT_EQ(benchCycles(123), 4000u);
    const ScopedEnv threads("DR_BENCH_THREADS", "3");
    EXPECT_EQ(benchConfig(Mechanism::Baseline).noc.threads, 3);
}

} // namespace
} // namespace dr

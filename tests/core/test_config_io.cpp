#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

/** Every config key with a value other than its makePaper() default. */
const std::pair<const char *, const char *> kNonDefaultValues[] = {
    {"mechanism", "delegated-replies"},
    {"layout", "C"},
    {"seed", "1099511627776"},  // 2^40
    {"sim.cycles", "3000000000"},
    {"sim.warmup", "123"},
    {"sim.idleSkip", "false"},
    {"noc.topology", "flattened-butterfly"},
    {"noc.meshWidth", "6"},
    {"noc.meshHeight", "5"},
    {"noc.chipletsX", "2"},
    {"noc.chipletsY", "3"},
    {"noc.chipletSubW", "5"},
    {"noc.chipletSubH", "6"},
    {"noc.chipletLinksPerEdge", "1"},
    {"noc.interposerChannelBytes", "8"},
    {"noc.interposerLatency", "7"},
    {"noc.channelBytes", "32"},
    {"noc.vcsPerNet", "3"},
    {"noc.vcDepthFlits", "5"},
    {"noc.routerStages", "2"},
    {"noc.threads", "4"},
    {"noc.sharedPhysical", "true"},
    {"noc.sharedReqVcs", "1"},
    {"noc.sharedReplyVcs", "3"},
    {"noc.vnets", "true"},
    {"noc.vnetRequestVcs", "2"},
    {"noc.vnetForwardVcs", "3"},
    {"noc.vnetReplyVcs", "4"},
    {"noc.vnetDelegatedVcs", "5"},
    {"noc.requestRouting", "HARE"},
    {"noc.replyRouting", "table"},
    {"noc.memInjBufferFlits", "40"},
    {"noc.coreInjBufferFlits", "41"},
    {"noc.ejBufferFlits", "19"},
    {"noc.bandwidthScale", "1.2345678"},
    {"gpu.numCores", "41"},
    {"gpu.warpsPerCore", "24"},
    {"gpu.issueWidth", "1"},
    {"gpu.l1SizeKB", "64"},
    {"gpu.l1Assoc", "8"},
    {"gpu.l1Mshrs", "16"},
    {"gpu.frqEntries", "12"},
    {"gpu.l1Org", "dc-l1"},
    {"gpu.ctaSchedule", "distributed"},
    {"cpu.numCores", "15"},
    {"cpu.l1SizeKB", "16"},
    {"mem.numNodes", "4"},
    {"mem.llcSliceKB", "512"},
    {"mem.llcAssoc", "8"},
    {"mem.llcLatency", "25"},
    {"mem.llcMshrs", "32"},
    {"mem.banksPerMc", "8"},
    {"mem.burstCycles", "4"},
    {"mem.placement", "3,11,19,27"},
    {"dr.delegateAlways", "true"},
    {"dr.frqRemotePriority", "false"},
    {"rp.probeCount", "4"},
    {"rp.predictorEntries", "256"},
    {"debug.watchdogCycles", "5000000000"},
    {"debug.watchdogAbort", "false"},
    {"debug.mshrLeakCycles", "4000000000"},
    {"debug.sweepCycles", "3000000001"},
};

std::string
dump(const SystemConfig &cfg)
{
    std::ostringstream out;
    writeConfig(cfg, out);
    return out.str();
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

/** The value the dump writes for `key`. */
std::string
dumpedValue(const SystemConfig &cfg, const std::string &key)
{
    const std::string prefix = key + " = ";
    for (const std::string &line : lines(dump(cfg))) {
        if (line.rfind(prefix, 0) == 0)
            return line.substr(prefix.size());
    }
    ADD_FAILURE() << "no key " << key << " in the dump";
    return "";
}

/**
 * The dump is lossless: a config with every key off its default parses
 * back field for field. Comparing a dump with its re-dump would not
 * catch a rounded double or a truncated seed.
 */
TEST(ConfigIo, RoundTripsEveryOption)
{
    SystemConfig cfg = SystemConfig::makePaper();
    for (const auto &[key, value] : kNonDefaultValues)
        applyConfigOption(cfg, key, value);
    EXPECT_EQ(cfg.noc.bandwidthScale, 1.2345678);
    EXPECT_EQ(cfg.seed, std::uint64_t{1} << 40);

    // Every dumped line changed, so the list above covers every key.
    const auto defaults = lines(dump(SystemConfig::makePaper()));
    const auto changed = lines(dump(cfg));
    ASSERT_EQ(changed.size(), std::size(kNonDefaultValues));
    ASSERT_EQ(defaults.size(), changed.size());
    for (std::size_t i = 0; i < changed.size(); ++i)
        EXPECT_NE(changed[i], defaults[i]);

    SystemConfig parsed = SystemConfig::makePaper();
    std::istringstream in(dump(cfg));
    parseConfig(parsed, in);
    EXPECT_TRUE(parsed == cfg) << dump(parsed);
    EXPECT_EQ(parsed.noc.bandwidthScale, 1.2345678);
    EXPECT_EQ(parsed.seed, std::uint64_t{1} << 40);
}

TEST(ConfigIo, SeedTakesEvery64BitValue)
{
    SystemConfig cfg = SystemConfig::makePaper();
    applyConfigOption(cfg, "seed", "4294967296");
    EXPECT_EQ(cfg.seed, 4294967296u);
    applyConfigOption(cfg, "seed", "18446744073709551615");
    EXPECT_EQ(cfg.seed, ~std::uint64_t{0});
    EXPECT_EQ(dumpedValue(cfg, "seed"), "18446744073709551615");
}

TEST(ConfigIoDeath, SignedSeedIsFatal)
{
    SystemConfig cfg = SystemConfig::makePaper();
    EXPECT_DEATH(applyConfigOption(cfg, "seed", "-1"),
                 "'seed' expects an unsigned 64-bit whole number");
    EXPECT_DEATH(applyConfigOption(cfg, "seed", "+1"),
                 "'seed' expects an unsigned 64-bit whole number");
}

TEST(ConfigIo, CycleKeysTakeMoreThanIntMax)
{
    SystemConfig cfg = SystemConfig::makePaper();
    applyConfigOption(cfg, "sim.cycles", "3000000000");
    applyConfigOption(cfg, "sim.warmup", "3000000001");
    applyConfigOption(cfg, "debug.watchdogCycles", "3000000002");
    applyConfigOption(cfg, "debug.mshrLeakCycles", "3000000003");
    applyConfigOption(cfg, "debug.sweepCycles", "3000000004");
    EXPECT_EQ(cfg.simCycles, 3000000000u);
    EXPECT_EQ(cfg.warmupCycles, 3000000001u);
    EXPECT_EQ(cfg.debug.watchdogCycles, 3000000002u);
    EXPECT_EQ(cfg.debug.mshrLeakCycles, 3000000003u);
    EXPECT_EQ(cfg.debug.sweepCycles, 3000000004u);
}

/**
 * Every enum spelling the parser accepted before the spelling tables,
 * with the name the dump writes for it: key, spelling, dumped name.
 */
const char *const kEarlierSpellings[][3] = {
    {"mechanism", "baseline", "baseline"},
    {"mechanism", "rp", "realistic-probing"},
    {"mechanism", "realistic-probing", "realistic-probing"},
    {"mechanism", "dr", "delegated-replies"},
    {"mechanism", "delegated-replies", "delegated-replies"},
    {"layout", "baseline", "baseline"},
    {"layout", "A", "baseline"},
    {"layout", "B", "B"},
    {"layout", "C", "C"},
    {"layout", "D", "D"},
    {"noc.topology", "mesh", "mesh"},
    {"noc.topology", "crossbar", "crossbar"},
    {"noc.topology", "flattened-butterfly", "flattened-butterfly"},
    {"noc.topology", "flatfly", "flattened-butterfly"},
    {"noc.topology", "dragonfly", "dragonfly"},
    {"noc.topology", "chiplet-mesh", "chiplet-mesh"},
    {"noc.topology", "chiplet", "chiplet-mesh"},
    {"noc.requestRouting", "XY", "XY"},
    {"noc.requestRouting", "xy", "XY"},
    {"noc.requestRouting", "YX", "YX"},
    {"noc.requestRouting", "yx", "YX"},
    {"noc.requestRouting", "DyXY", "DyXY"},
    {"noc.requestRouting", "dyxy", "DyXY"},
    {"noc.requestRouting", "footprint", "footprint"},
    {"noc.requestRouting", "Footprint", "footprint"},
    {"noc.requestRouting", "HARE", "HARE"},
    {"noc.requestRouting", "hare", "HARE"},
    {"noc.requestRouting", "table", "table"},
    {"noc.requestRouting", "table-minimal", "table"},
    {"noc.requestRouting", "chiplet", "chiplet"},
    {"noc.requestRouting", "chiplet-hierarchical", "chiplet"},
    {"noc.replyRouting", "yx", "YX"},
    {"noc.replyRouting", "table-minimal", "table"},
    {"gpu.l1Org", "private", "private"},
    {"gpu.l1Org", "dc-l1", "dc-l1"},
    {"gpu.l1Org", "DC-L1", "dc-l1"},
    {"gpu.l1Org", "dyneb", "dyneb"},
    {"gpu.l1Org", "DynEB", "dyneb"},
    {"gpu.ctaSchedule", "round-robin", "round-robin"},
    {"gpu.ctaSchedule", "rr", "round-robin"},
    {"gpu.ctaSchedule", "distributed", "distributed"},
};

TEST(ConfigIo, AcceptsEveryEarlierSpelling)
{
    for (const auto &[key, spelling, dumped] : kEarlierSpellings) {
        SystemConfig cfg = SystemConfig::makePaper();
        applyConfigOption(cfg, key, spelling);
        EXPECT_EQ(dumpedValue(cfg, key), dumped) << key << " = " << spelling;
    }
}

/** Each row lists its value at its own index; every name reads back. */
template <typename E>
void
expectSpellingsReadBack(const char *key)
{
    const auto rows = spellings(E{}).rows;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Spelling<E> &row = rows[i];
        EXPECT_EQ(static_cast<std::size_t>(row.value), i) << row.config;
        for (const char *name : {row.config, row.display, row.alias}) {
            if (!name)
                continue;
            SystemConfig cfg = SystemConfig::makePaper();
            applyConfigOption(cfg, key, name);
            EXPECT_EQ(dumpedValue(cfg, key), row.config) << name;
        }
    }
}

TEST(ConfigIo, EveryPrintedNameReadsBack)
{
    expectSpellingsReadBack<Mechanism>("mechanism");
    expectSpellingsReadBack<ChipLayout>("layout");
    expectSpellingsReadBack<TopologyKind>("noc.topology");
    expectSpellingsReadBack<RoutingKind>("noc.replyRouting");
    expectSpellingsReadBack<L1Organization>("gpu.l1Org");
    expectSpellingsReadBack<CtaSchedule>("gpu.ctaSchedule");
}

/** Bench output and gtest parameter names print these display names. */
TEST(ConfigIo, DisplayNamesAreStable)
{
    EXPECT_STREQ(mechanismName(Mechanism::Baseline), "Baseline");
    EXPECT_STREQ(mechanismName(Mechanism::RealisticProbing), "RP");
    EXPECT_STREQ(mechanismName(Mechanism::DelegatedReplies),
                 "DelegatedReplies");
    EXPECT_STREQ(layoutName(ChipLayout::Baseline), "Baseline");
    EXPECT_STREQ(layoutName(ChipLayout::LayoutB), "B");
    EXPECT_STREQ(layoutName(ChipLayout::LayoutC), "C");
    EXPECT_STREQ(layoutName(ChipLayout::LayoutD), "D");
    EXPECT_STREQ(topologyName(TopologyKind::Mesh), "mesh");
    EXPECT_STREQ(topologyName(TopologyKind::Crossbar), "crossbar");
    EXPECT_STREQ(topologyName(TopologyKind::FlattenedButterfly),
                 "flattened-butterfly");
    EXPECT_STREQ(topologyName(TopologyKind::Dragonfly), "dragonfly");
    EXPECT_STREQ(topologyName(TopologyKind::ChipletMesh), "chiplet-mesh");
    EXPECT_STREQ(routingName(RoutingKind::DimOrderXY), "XY");
    EXPECT_STREQ(routingName(RoutingKind::DimOrderYX), "YX");
    EXPECT_STREQ(routingName(RoutingKind::DyXY), "DyXY");
    EXPECT_STREQ(routingName(RoutingKind::Footprint), "Footprint");
    EXPECT_STREQ(routingName(RoutingKind::Hare), "HARE");
    EXPECT_STREQ(routingName(RoutingKind::TableMinimal), "table-minimal");
    EXPECT_STREQ(routingName(RoutingKind::ChipletHierarchical), "chiplet");
    EXPECT_STREQ(l1OrganizationName(L1Organization::Private), "private");
    EXPECT_STREQ(l1OrganizationName(L1Organization::DcL1), "DC-L1");
    EXPECT_STREQ(l1OrganizationName(L1Organization::DynEB), "DynEB");
    EXPECT_STREQ(ctaScheduleName(CtaSchedule::RoundRobin), "round-robin");
    EXPECT_STREQ(ctaScheduleName(CtaSchedule::Distributed), "distributed");
}

/**
 * The shipped experiment configs load, validate, and survive a dump,
 * re-parse and second dump byte for byte.
 */
TEST(ConfigIo, ShippedExperimentConfigsRoundTrip)
{
    int files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(DR_EXPERIMENTS_DIR)) {
        if (entry.path().extension() != ".cfg")
            continue;
        ++files;
        SCOPED_TRACE(entry.path().string());
        SystemConfig cfg = SystemConfig::makePaper();
        parseConfigFile(cfg, entry.path().string());
        cfg.validate();
        SystemConfig reparsed = SystemConfig::makePaper();
        std::istringstream in(dump(cfg));
        parseConfig(reparsed, in);
        EXPECT_EQ(dump(reparsed), dump(cfg));
        EXPECT_TRUE(reparsed == cfg);
    }
    EXPECT_GE(files, 4);
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
    const char *aboveRange;  //!< the smallest value past the knob's limit
};

const EnvKnob kEnvKnobs[] = {
    {"DR_NOC_THREADS",
     [] { HeteroSystem sys(SystemConfig::makeSmall(), "HS", "vips"); },
     "257"},
    {"DR_BENCH_CYCLES", [] { (void)benchCycles(100); }, "1000000000001"},
    {"DR_BENCH_CPUS", [] { (void)benchCpus(); }, "4"},
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
        for (const char *bad :
             {"4x", "-1", "0", " 4", "abc", knob.aboveRange}) {
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
    const ScopedEnv cpus("DR_BENCH_CPUS", "");
    EXPECT_EQ(benchCpus(), 3);
    unsetenv("DR_BENCH_CPUS");
    EXPECT_EQ(benchCpus(), 3);
}

TEST(EnvKnob, WholeNumbersInRangeApply)
{
    const ScopedEnv cycles("DR_BENCH_CYCLES", "4000");
    EXPECT_EQ(benchCycles(123), 4000u);
    const ScopedEnv cpus("DR_BENCH_CPUS", "2");
    EXPECT_EQ(benchCpus(), 2);
}

} // namespace
} // namespace dr

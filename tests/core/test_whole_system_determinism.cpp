#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "../noc/network_test_access.hpp"
#include "core/experiment.hpp"
#include "core/hetero_system.hpp"

namespace dr
{
namespace
{

/**
 * Whole-system determinism matrix (DESIGN.md §13). The endpoint tick
 * phase is partitioned across the same spatial domains as the NoC and
 * the idle-skip fast path elides provably dead cycles, so every
 * combination of worker threads and idle skipping must produce a
 * bit-identical run: same cycle counts, same counters, same
 * floating-point metrics. These tests pin that equivalence across
 * thread counts {1, 2, 4} x idleSkip {on, off} x vnets {on, off} x
 * three topologies, plus the 256-node chiplet chip and the shared
 * (AVCP) physical network.
 */

/** Serialize every RunResults field at full precision. */
std::string
fingerprint(const RunResults &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.cycles << '|' << r.gpuIpc << '|' << r.cpuIpc << '|'
       << r.cpuLatency << '|' << r.gpuDataRate << '|' << r.memBlockingRate
       << '|' << r.l1Misses << '|' << r.missesWithRemoteCopy << '|'
       << r.delegations << '|' << r.frqRemoteHits << '|'
       << r.frqDelayedHits << '|' << r.frqRemoteMisses << '|'
       << r.probesSent << '|' << r.probeHits << '|' << r.requestsInjected
       << '|' << r.switchTraversals << '|' << r.bufferWrites << '|'
       << r.linkTraversals << '|' << r.gpuL1MissRate << '|'
       << r.llcHitRate;
    return os.str();
}

SystemConfig
matrixCfg(TopologyKind topo, bool vnets)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mechanism = Mechanism::DelegatedReplies;
    cfg.warmupCycles = 1500;
    cfg.simCycles = 3500;
    cfg.noc.topology = topo;
    cfg.noc.vnets = vnets;
    if (vnets && topo == TopologyKind::Dragonfly) {
        // Dragonfly phase escalation needs >= 2 VCs per virtual network.
        cfg.noc.vcsPerNet = 4;
        cfg.noc.vnetRequestVcs = 2;
        cfg.noc.vnetForwardVcs = 2;
        cfg.noc.vnetReplyVcs = 2;
        cfg.noc.vnetDelegatedVcs = 2;
    }
    if (topo == TopologyKind::ChipletMesh) {
        // 2x2 chiplets of 4x4 routers composing the 8x8 paper chip.
        // Restricted gateways force hierarchical routing, half-width
        // interposer channels engage the 2-cycle serialization throttle,
        // and the 3-phase VC escalation needs >= 3 VCs per VN.
        cfg.noc.chipletsX = 2;
        cfg.noc.chipletsY = 2;
        cfg.noc.chipletSubW = 4;
        cfg.noc.chipletSubH = 4;
        cfg.noc.chipletLinksPerEdge = 2;
        cfg.noc.interposerChannelBytes = 8;
        if (vnets) {
            cfg.noc.vcsPerNet = 6;
            cfg.noc.vnetRequestVcs = 3;
            cfg.noc.vnetForwardVcs = 3;
            cfg.noc.vnetReplyVcs = 3;
            cfg.noc.vnetDelegatedVcs = 3;
        } else {
            cfg.noc.vcsPerNet = 3;
        }
    }
    return cfg;
}

std::string
runFingerprint(SystemConfig cfg, int threads, bool idleSkip)
{
    cfg.noc.threads = threads;
    cfg.idleSkip = idleSkip;
    return fingerprint(runWorkload(cfg, "HS", "blackscholes"));
}

struct MatrixCase
{
    TopologyKind topo;
    bool vnets;
};

class WholeSystemDeterminism : public ::testing::TestWithParam<MatrixCase>
{
};

TEST_P(WholeSystemDeterminism, BitIdenticalAcrossThreadsAndIdleSkip)
{
    const SystemConfig cfg = matrixCfg(GetParam().topo, GetParam().vnets);
    // Golden: serial endpoint phase, every cycle ticked.
    const std::string golden = runFingerprint(cfg, 1, false);
    EXPECT_EQ(golden, runFingerprint(cfg, 1, true)) << "skip-on diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 2, true))
        << "2 threads + skip diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, false))
        << "4 threads diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, true))
        << "4 threads + skip diverged";
}

std::string
caseName(const ::testing::TestParamInfo<MatrixCase> &info)
{
    std::string name;
    for (const char c : std::string(topologyName(info.param.topo))) {
        if (c != '-')  // gtest parameter names must be alphanumeric
            name += c;
    }
    return name + (info.param.vnets ? "Vnets" : "");
}

INSTANTIATE_TEST_SUITE_P(
    TopologyMatrix, WholeSystemDeterminism,
    ::testing::Values(MatrixCase{TopologyKind::Mesh, false},
                      MatrixCase{TopologyKind::Mesh, true},
                      MatrixCase{TopologyKind::Dragonfly, false},
                      MatrixCase{TopologyKind::Dragonfly, true},
                      MatrixCase{TopologyKind::ChipletMesh, false},
                      MatrixCase{TopologyKind::ChipletMesh, true}),
    caseName);

/**
 * Only DyXY ties and HARE draw from the routing RNG, and each node
 * draws from its own stream, seeded from (network seed, node), at its
 * own injections (DESIGN.md §13). So where a node's sends inject —
 * which worker, before or after other domains' endpoints — cannot
 * change its draws: 2 and 4 domains must reproduce the serial run. A
 * stream shared by a domain or the whole network would hand draws to
 * packets in an order that depends on the partition.
 */
TEST(WholeSystemDeterminism, AdaptiveRoutingDrawsFromPerNodeStreams)
{
    for (const RoutingKind routing : {RoutingKind::DyXY, RoutingKind::Hare}) {
        SystemConfig cfg = matrixCfg(TopologyKind::Mesh, false);
        cfg.noc.requestRouting = routing;
        cfg.noc.replyRouting = routing;
        const std::string golden = runFingerprint(cfg, 1, false);
        EXPECT_EQ(golden, runFingerprint(cfg, 2, true))
            << routingName(routing) << ": 2 threads + skip diverged";
        EXPECT_EQ(golden, runFingerprint(cfg, 4, false))
            << routingName(routing) << ": 4 threads diverged";
    }
}

/** 4x4 chiplets of 4x4 routers: the 256-node chiplet-scale chip. */
SystemConfig
chiplet256Cfg()
{
    SystemConfig cfg = matrixCfg(TopologyKind::ChipletMesh, true);
    cfg.noc.chipletsX = 4;
    cfg.noc.chipletsY = 4;
    cfg.noc.meshWidth = 16;
    cfg.noc.meshHeight = 16;
    cfg.gpu.numCores = 176;
    cfg.cpu.numCores = 48;
    cfg.mem.numNodes = 32;
    cfg.warmupCycles = 800;
    cfg.simCycles = 1600;
    return cfg;
}

/**
 * Scale acceptance: a 256-node chip of 4x4 chiplets, each a
 * 4x4 sub-mesh, with restricted gateways, half-width interposer
 * channels, and virtual networks on — bit-identical across worker
 * threads {1, 4} x idleSkip {on, off}. The chiplet-aligned domain
 * partition snaps to whole chiplet rows, so the 4-thread run really
 * exercises 4 domains (one per chiplet row).
 */
TEST(WholeSystemDeterminism, ChipletScale256Nodes)
{
    const SystemConfig cfg = chiplet256Cfg();
    const std::string golden = runFingerprint(cfg, 1, false);
    EXPECT_EQ(golden, runFingerprint(cfg, 1, true)) << "skip-on diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, false))
        << "4 threads diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, true))
        << "4 threads + skip diverged";
}

/**
 * The paper chip on one 64-port crossbar router (128 input-VC keys at
 * the default 2 VCs), HS + bodytrack under the baseline and under DR.
 * Committed literals, generated like the raw-network crossbar pins in
 * tests/noc/test_kernel_regressions.cpp and for the same reason.
 */
TEST(WholeSystemDeterminism, CrossbarChipMatchesPinnedLiterals)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.noc.topology = TopologyKind::Crossbar;
    cfg.warmupCycles = 1500;
    cfg.simCycles = 3500;
    cfg.mechanism = Mechanism::Baseline;
    EXPECT_EQ(fingerprint(runWorkload(cfg, "HS", "bodytrack")),
              "3500|9.9359999999999999|0.18937499999999999|215.87163824169411|"
              "0.15709285714285715|0.8332857142857143|5643|3476|0|0|0|0|0|0|"
              "4274|30964|31005|30964|0.82887779083431257|"
              "0.39290287177611122");
    cfg.mechanism = Mechanism::DelegatedReplies;
    EXPECT_EQ(fingerprint(runWorkload(cfg, "HS", "bodytrack")),
              "3500|13.810571428571428|0.2494821428571429|166.87721539727016|"
              "0.20242857142857146|0.52224999999999999|7171|4782|1500|1091|19|"
              "366|0|0|7659|42882|42911|42882|0.75595614589921989|"
              "0.45391517128874387");
}

/**
 * The paper chip on its 8x8 mesh with Footprint routing, HS + bodytrack
 * under DR. Footprint adapts from the first hop's free credits and draws
 * no routing RNG, so where and when a packet is injected — not which
 * stream it would draw from — decides its route. The literal was taken
 * while sends were still staged in per-node outboxes and drained by the
 * serial merge; direct injection in the endpoint's own tick must
 * reproduce it.
 */
TEST(WholeSystemDeterminism, FootprintMeshMatchesPinnedLiteral)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mechanism = Mechanism::DelegatedReplies;
    cfg.noc.requestRouting = RoutingKind::Footprint;
    cfg.noc.replyRouting = RoutingKind::Footprint;
    cfg.warmupCycles = 1000;
    cfg.simCycles = 2500;
    EXPECT_EQ(fingerprint(runWorkload(cfg, "HS", "bodytrack")),
              "2500|5.9176000000000002|0.18875|378.42974693832099|0.11265|"
              "0.73239999999999994|3230|1008|298|209|5|80|0|0|2272|74302|"
              "74328|74302|0.99814585908529052|0.20627615062761506");
}

/** Threads of this process, counted from /proc/self/task. */
int
processThreads()
{
    int n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/**
 * One pool for the whole chip (DESIGN.md §11): both physical networks
 * and the endpoints run on the interconnect's TickPool, so
 * noc.threads=4 adds exactly 3 worker threads to the process — not one
 * pool of 3 per network plus 3 for the endpoints.
 */
TEST(WholeSystemDeterminism, FourThreadsMeansThreeWorkers)
{
    SystemConfig cfg = chiplet256Cfg();
    cfg.noc.threads = 4;
    const int before = processThreads();
    HeteroSystem sys(cfg, "HS", "blackscholes");
    sys.advance(200);
    EXPECT_EQ(sys.endpointDomains(), 4);
    EXPECT_EQ(processThreads() - before, 3);
}

/**
 * One parallel run per cycle (DESIGN.md §11): each domain's endpoints
 * tick in the same TickPool run as its networks, and the serial merge
 * files the cross-domain arrivals, so a busy cycle is one run — not a
 * compute run plus a commit run. With idle skipping off every cycle
 * makes that run (the endpoints tick even when the nets are idle), so
 * the run count cannot tell busy from idle; delivered flits show the
 * networks carried traffic.
 */
TEST(WholeSystemDeterminism, BusyCycleCostsOnePoolRun)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mechanism = Mechanism::DelegatedReplies;
    cfg.noc.threads = 4;
    cfg.idleSkip = false;
    HeteroSystem sys(cfg, "HS", "bodytrack");
    sys.advance(500);  // past the cold start
    const TickPool &pool = sys.interconnect().tickPool();
    const Network &request = sys.interconnect().net(NetKind::Request);
    const std::uint64_t before = NetworkTestAccess::poolRuns(pool);
    const std::uint64_t flits = request.stats().flitsDelivered.value();
    const Cycle cycles = 1000;
    sys.advance(cycles);
    EXPECT_GT(request.stats().flitsDelivered.value(), flits)
        << "the networks were idle: nothing measured";
    EXPECT_EQ(NetworkTestAccess::poolRuns(pool) - before, cycles);
}

/**
 * AVCP: one double-width physical network shared by requests and
 * replies (noc.sharedPhysical), so the fused network tick drives a
 * one-network list. Bit-identical across threads {1, 4} x idleSkip.
 */
TEST(WholeSystemDeterminism, SharedPhysicalNetwork)
{
    SystemConfig cfg = matrixCfg(TopologyKind::Mesh, false);
    cfg.noc.sharedPhysical = true;
    const std::string golden = runFingerprint(cfg, 1, false);
    EXPECT_EQ(golden, runFingerprint(cfg, 1, true)) << "skip-on diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, false))
        << "4 threads diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, true))
        << "4 threads + skip diverged";
}

/**
 * Shared-L1 determinism matrix (DESIGN.md §14). The DC-L1 and DynEB
 * organizations stage their cross-core effects per calling core and
 * drain them in the serial merge, which is what lets them run the
 * endpoint phase across multiple domains.
 * Every threads {1, 2, 4} x idleSkip {on, off} combination must stay
 * bit-identical to the serial densely-ticked golden run.
 */
class L1OrgDeterminism : public ::testing::TestWithParam<L1Organization>
{
};

TEST_P(L1OrgDeterminism, BitIdenticalAcrossThreadsAndIdleSkip)
{
    SystemConfig cfg = matrixCfg(TopologyKind::Mesh, false);
    cfg.gpu.l1Org = GetParam();
    // Golden: serial endpoint phase, every cycle ticked.
    const std::string golden = runFingerprint(cfg, 1, false);
    EXPECT_EQ(golden, runFingerprint(cfg, 1, true)) << "skip-on diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 2, false))
        << "2 threads diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 2, true))
        << "2 threads + skip diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, false))
        << "4 threads diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, true))
        << "4 threads + skip diverged";
}

std::string
l1OrgCaseName(const ::testing::TestParamInfo<L1Organization> &info)
{
    return info.param == L1Organization::DcL1 ? "shared" : "dyneb";
}

INSTANTIATE_TEST_SUITE_P(SharedOrgMatrix, L1OrgDeterminism,
                         ::testing::Values(L1Organization::DcL1,
                                           L1Organization::DynEB),
                         l1OrgCaseName);

/**
 * Skip-heavy configuration: a 2x2 chip whose two single-warp GPU cores
 * are almost always in WaitMem and whose lone CPU core runs vips (80%
 * dependent misses, so it is blocked most cycles). Whenever the tiny
 * network drains while requests sit in the LLC/DRAM, every endpoint
 * watermark lies in the future and the idle-skip fast path engages
 * (asserted below).
 */
SystemConfig
skipHeavyCfg()
{
    SystemConfig cfg = SystemConfig::makeSmall();
    cfg.mechanism = Mechanism::DelegatedReplies;
    cfg.noc.meshWidth = 2;
    cfg.noc.meshHeight = 2;
    cfg.gpu.numCores = 2;
    cfg.cpu.numCores = 1;
    cfg.mem.numNodes = 1;
    cfg.gpu.warpsPerCore = 1;
    cfg.debug.watchdogCycles = 1u << 20;  // armed, far from firing
    return cfg;
}

/**
 * Satellite regression (PR 7): watchdog observations are scheduled by
 * next-due cycle, so an idle skip must land on (not jump over) every
 * due observation point. The skip-on run must observe exactly as often
 * as the skip-off run while actually skipping cycles. Checked-build
 * invariant sweeps use the same next-due clamp (debug.sweepCycles);
 * the DR_CHECKED CI leg runs this test with sweeps armed.
 */
TEST(IdleSkip, WatchdogObservationScheduleSurvivesSkips)
{
    SystemConfig cfg = skipHeavyCfg();
    const Cycle span = 20000;

    cfg.idleSkip = false;
    HeteroSystem dense(cfg, "HS", "vips");
    dense.advance(span);

    cfg.idleSkip = true;
    HeteroSystem skipping(cfg, "HS", "vips");
    skipping.advance(span);

    ASSERT_NE(dense.watchdog(), nullptr);
    ASSERT_NE(skipping.watchdog(), nullptr);
    EXPECT_EQ(dense.idleSkippedCycles(), 0u);
    EXPECT_GT(skipping.idleSkippedCycles(), 0u)
        << "config no longer produces idle stretches; retune skipHeavyCfg";
    EXPECT_EQ(dense.watchdog()->observations(),
              skipping.watchdog()->observations());
    EXPECT_EQ(dense.watchdog()->lastProgressCycle(),
              skipping.watchdog()->lastProgressCycle());
    EXPECT_EQ(dense.progressSignature(), skipping.progressSignature());
    EXPECT_EQ(dense.now(), skipping.now());
}

/**
 * Stats equivalence across skipped stretches: time-integrated counters
 * (mem active/blocked cycles feeding memBlockingRate, CPU latency)
 * must account for elided cycles exactly.
 */
TEST(IdleSkip, SkippedStretchesKeepStatsEquivalent)
{
    SystemConfig cfg = skipHeavyCfg();
    cfg.warmupCycles = 2000;
    cfg.simCycles = 15000;

    cfg.idleSkip = false;
    const RunResults dense = runWorkload(cfg, "HS", "vips");
    cfg.idleSkip = true;
    const RunResults skipping = runWorkload(cfg, "HS", "vips");

    EXPECT_EQ(fingerprint(dense), fingerprint(skipping));
}

} // namespace
} // namespace dr

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

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
 * and the endpoint engine run on the interconnect's TickPool, so
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

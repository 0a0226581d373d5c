#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/hetero_system.hpp"

namespace dr
{
namespace
{

SystemConfig
quickCfg(Mechanism m = Mechanism::Baseline)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mechanism = m;
    cfg.warmupCycles = 2000;
    cfg.simCycles = 6000;
    return cfg;
}

TEST(System, BaselineRunsAndProducesWork)
{
    HeteroSystem sys(quickCfg(), "HS", "blackscholes");
    const RunResults r = sys.run();
    EXPECT_GT(r.gpuIpc, 0.1);
    EXPECT_GT(r.cpuIpc, 0.05);
    EXPECT_GT(r.cpuLatency, 10.0);
    EXPECT_GT(r.l1Misses, 100u);
    EXPECT_GT(r.gpuDataRate, 0.0);
}

TEST(System, BaselineNeverDelegates)
{
    HeteroSystem sys(quickCfg(Mechanism::Baseline), "HS", "dedup");
    const RunResults r = sys.run();
    EXPECT_EQ(r.delegations, 0u);
    EXPECT_EQ(r.probesSent, 0u);
}

TEST(System, DelegatedRepliesDelegatesUnderClogging)
{
    SystemConfig cfg = quickCfg(Mechanism::DelegatedReplies);
    cfg.warmupCycles = 8000;
    cfg.simCycles = 12000;
    HeteroSystem sys(cfg, "HS", "blackscholes");
    const RunResults r = sys.run();
    EXPECT_GT(r.delegations, 50u);
    EXPECT_GT(r.frqRemoteHits, 10u);
    // Remote hit rate should be substantial (paper: 74.4%).
    EXPECT_GT(r.remoteHitRate(), 0.3);
}

TEST(System, RpProbes)
{
    HeteroSystem sys(quickCfg(Mechanism::RealisticProbing), "HS",
                     "blackscholes");
    const RunResults r = sys.run();
    EXPECT_GT(r.probesSent, 100u);
    EXPECT_EQ(r.delegations, 0u);
}

TEST(System, DeterministicForEqualSeeds)
{
    const RunResults a =
        runWorkload(quickCfg(Mechanism::DelegatedReplies), "2DCON",
                    "canneal");
    const RunResults b =
        runWorkload(quickCfg(Mechanism::DelegatedReplies), "2DCON",
                    "canneal");
    EXPECT_DOUBLE_EQ(a.gpuIpc, b.gpuIpc);
    EXPECT_DOUBLE_EQ(a.cpuLatency, b.cpuLatency);
    EXPECT_EQ(a.delegations, b.delegations);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
}

TEST(System, MemNodesBlockUnderGpuFlood)
{
    // The core phenomenon: the baseline's memory nodes spend a large
    // fraction of cycles unable to inject replies.
    SystemConfig cfg = quickCfg();
    cfg.warmupCycles = 8000;
    cfg.simCycles = 12000;
    HeteroSystem sys(cfg, "2DCON", "blackscholes");
    const RunResults r = sys.run();
    EXPECT_GT(r.memBlockingRate, 0.15);
}

/**
 * Endpoints inject straight into their own NI inside their tick, so a
 * message a node sent to itself would be ready in that same tick
 * (DESIGN.md §13). No endpoint does: requests go to memory nodes,
 * delegations and probes to other cores, replies to the requester.
 * Network::inject panics on one, so every mechanism, with its
 * delegation and probe traffic, runs to the end.
 */
TEST(System, ChipNeverDeliversLocally)
{
    for (const Mechanism m :
         {Mechanism::Baseline, Mechanism::RealisticProbing,
          Mechanism::DelegatedReplies}) {
        SystemConfig cfg = quickCfg(m);
        cfg.warmupCycles = 0;
        HeteroSystem sys(cfg, "HS", "blackscholes");
        const RunResults r = sys.run();
        EXPECT_GT(r.requestsInjected, 1000u) << mechanismName(m);
    }
}

TEST(System, AllMechanismsRunAllTopologies)
{
    for (const TopologyKind topo :
         {TopologyKind::Mesh, TopologyKind::Crossbar,
          TopologyKind::FlattenedButterfly, TopologyKind::Dragonfly}) {
        SystemConfig cfg = quickCfg(Mechanism::DelegatedReplies);
        cfg.noc.topology = topo;
        cfg.warmupCycles = 1000;
        cfg.simCycles = 3000;
        const RunResults r = runWorkload(cfg, "SRAD", "ferret");
        EXPECT_GT(r.gpuIpc, 0.05) << topologyName(topo);
    }
}

TEST(System, AllLayoutsRun)
{
    for (const ChipLayout l :
         {ChipLayout::Baseline, ChipLayout::LayoutB, ChipLayout::LayoutC,
          ChipLayout::LayoutD}) {
        SystemConfig cfg = quickCfg(Mechanism::DelegatedReplies);
        cfg.layout = l;
        applyDefaultRouting(cfg);
        cfg.warmupCycles = 1000;
        cfg.simCycles = 3000;
        const RunResults r = runWorkload(cfg, "SRAD", "ferret");
        EXPECT_GT(r.gpuIpc, 0.05) << layoutName(l);
    }
}

TEST(System, AdaptiveRoutingRuns)
{
    for (const RoutingKind kind :
         {RoutingKind::DyXY, RoutingKind::Footprint, RoutingKind::Hare}) {
        SystemConfig cfg = quickCfg();
        cfg.noc.requestRouting = kind;
        cfg.noc.replyRouting = kind;
        cfg.warmupCycles = 1000;
        cfg.simCycles = 3000;
        const RunResults r = runWorkload(cfg, "HS", "x264");
        EXPECT_GT(r.gpuIpc, 0.05) << routingName(kind);
    }
}

TEST(System, SharedPhysicalNetworkRuns)
{
    SystemConfig cfg = quickCfg(Mechanism::DelegatedReplies);
    cfg.noc.sharedPhysical = true;
    cfg.noc.sharedReqVcs = 1;
    cfg.noc.sharedReplyVcs = 3;
    const RunResults r = runWorkload(cfg, "HS", "bodytrack");
    EXPECT_GT(r.gpuIpc, 0.1);
}

TEST(System, SharedL1OrganizationsRun)
{
    for (const L1Organization org :
         {L1Organization::DcL1, L1Organization::DynEB}) {
        SystemConfig cfg = quickCfg(Mechanism::DelegatedReplies);
        cfg.gpu.l1Org = org;
        cfg.warmupCycles = 1000;
        cfg.simCycles = 4000;
        const RunResults r = runWorkload(cfg, "LUD", "ferret");
        EXPECT_GT(r.gpuIpc, 0.05) << l1OrganizationName(org);
    }
}

TEST(System, DistributedCtaSchedulingRuns)
{
    SystemConfig cfg = quickCfg(Mechanism::DelegatedReplies);
    cfg.gpu.ctaSchedule = CtaSchedule::Distributed;
    const RunResults r = runWorkload(cfg, "2DCON", "canneal");
    EXPECT_GT(r.gpuIpc, 0.1);
}

TEST(System, DelegateAlwaysAblationDelegatesMore)
{
    SystemConfig cfg = quickCfg(Mechanism::DelegatedReplies);
    const RunResults onDemand = runWorkload(cfg, "2DCON", "canneal");
    cfg.dr.delegateAlways = true;
    const RunResults always = runWorkload(cfg, "2DCON", "canneal");
    EXPECT_GT(always.delegations, onDemand.delegations);
}

TEST(System, FrqPriorityAblationRuns)
{
    SystemConfig cfg = quickCfg(Mechanism::DelegatedReplies);
    cfg.dr.frqRemotePriority = false;
    const RunResults r = runWorkload(cfg, "HS", "blackscholes");
    EXPECT_GT(r.gpuIpc, 0.1);
}

TEST(System, MesiDirectoryActiveForCpuTraffic)
{
    SystemConfig cfg = quickCfg();
    HeteroSystem sys(cfg, "HS", "dedup");
    sys.run();
    const MesiStats mesi = sys.mesiStats();
    EXPECT_GT(mesi.reads.value() + mesi.writes.value(), 100u);
}

TEST(System, KernelBoundariesFlushCoherence)
{
    SystemConfig cfg = quickCfg();
    cfg.warmupCycles = 5000;
    cfg.simCycles = 20000;
    HeteroSystem sys(cfg, "LUD", "ferret");
    sys.run();
    EXPECT_GT(sys.coherence().flushes().value(), 0u);
}

TEST(System, DoubleBandwidthImprovesCloggedWorkload)
{
    SystemConfig cfg = quickCfg();
    cfg.warmupCycles = 6000;
    cfg.simCycles = 10000;
    const RunResults nominal = runWorkload(cfg, "2DCON", "blackscholes");
    cfg.noc.bandwidthScale = 2.0;
    const RunResults doubled = runWorkload(cfg, "2DCON", "blackscholes");
    EXPECT_GT(doubled.gpuIpc, nominal.gpuIpc * 1.05);
}

TEST(System, RunResultsDerivedMetrics)
{
    RunResults r;
    r.l1Misses = 100;
    r.missesWithRemoteCopy = 57;
    r.delegations = 50;
    r.frqRemoteHits = 30;
    r.frqDelayedHits = 7;
    r.frqRemoteMisses = 13;
    EXPECT_DOUBLE_EQ(r.remoteCopyFraction(), 0.57);
    EXPECT_DOUBLE_EQ(r.forwardedFraction(), 0.5);
    EXPECT_DOUBLE_EQ(r.remoteHitRate(), 0.74);
}

TEST(Experiment, MeansBehave)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 1.0}), 1.0);
    EXPECT_NEAR(harmonicMean({2.0, 6.0}), 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(mean({1.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

} // namespace
} // namespace dr

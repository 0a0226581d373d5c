/**
 * @file
 * Determinism proofs for the parallel tick engine (DESIGN.md §11):
 * the spatial-domain partition must be unobservable. Every test runs
 * the same seeded workload under noc.threads = 1 and under a
 * multi-domain partition and requires the full statistics fingerprint
 * — including floating-point latency sums, whose addition order the
 * serial merge must reproduce exactly — to be bit-identical across
 * all four topologies, with virtual networks off and on, and for an
 * end-to-end Delegated Replies protocol run (delegation + DNF).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/hetero_system.hpp"
#include "network_test_access.hpp"
#include "noc/network.hpp"
#include "noc/synthetic_traffic.hpp"

namespace dr
{
namespace
{

Message
makeMsg(NodeId src, NodeId dst, MsgType type, TrafficClass cls,
        std::uint64_t id)
{
    Message m;
    m.type = type;
    m.cls = cls;
    m.src = src;
    m.dst = dst;
    m.requester = src;
    m.id = id;
    return m;
}

void
drainReady(Network &net)
{
    for (NodeId n = 0; n < net.topology().nodes(); ++n) {
        while (net.hasMessage(n, NetKind::Request))
            net.popMessage(n, NetKind::Request);
        while (net.hasMessage(n, NetKind::Reply))
            net.popMessage(n, NetKind::Reply);
    }
}

Topology
topoFor(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Mesh:
        return Topology::makeMesh(4, 4);
      case TopologyKind::Crossbar:
        return Topology::makeCrossbar(16);
      case TopologyKind::FlattenedButterfly:
        return Topology::makeFlattenedButterfly(16, 4);
      case TopologyKind::Dragonfly:
        return Topology::makeDragonfly(64, 4, 4);
      case TopologyKind::ChipletMesh:
        // 2x2 chiplets of 2x2 routers, one interposer link per edge:
        // gateway-restricted, so hierarchical routing is mandatory.
        return Topology::makeChipletMesh(2, 2, 2, 2, 1);
    }
    panic("unknown topology kind");
}

/**
 * One fixed synthetic run on `kind` with the given thread count and
 * router pipeline depth; returns every aggregate statistic, formatted
 * for exact comparison. With `vnets` set the VCs are partitioned
 * one-per-VN (two-per-VN on Dragonfly, which needs 2 VCs per VN for
 * phase escalation) and traffic is spread across all four virtual
 * networks.
 */
std::string
fingerprint(TopologyKind kind, int threads, bool vnets,
            std::uint64_t seed, int routerStages)
{
    const Topology topo = topoFor(kind);
    const int nodes = topo.nodes();

    NetworkParams params;
    params.seed = seed;
    params.vcDepthFlits = 4;
    params.routerStages = routerStages;
    params.ejBufferFlits = 20;
    params.injBufferFlits.assign(nodes, 36);
    params.routing = kind == TopologyKind::Mesh
                         ? RoutingKind::DimOrderXY
                     : kind == TopologyKind::ChipletMesh
                         ? RoutingKind::ChipletHierarchical
                         : RoutingKind::TableMinimal;
    params.threads = threads;
    if (kind == TopologyKind::ChipletMesh) {
        // Exercise the interposer link class: half-width channels
        // (2-cycle serialization) plus extra hop/credit latency. The
        // throttle and occupancy bookkeeping must be as partition-
        // independent as everything else. A one-stage router gets no
        // interposer latency either, so every hop is due the next cycle.
        params.interposerSerialization = 2;
        params.interposerLatency = routerStages == 1 ? 0 : 3;
    }
    const int vcsPerVn = kind == TopologyKind::Dragonfly ? 2 : 1;
    if (vnets) {
        params.numVcs = numVnets * vcsPerVn;
        params.vnPriority = true;
        params.layout.numVcs = params.numVcs;
        for (int vn = 0; vn < numVnets; ++vn) {
            params.layout.range[vn] = {
                static_cast<std::uint8_t>(vn * vcsPerVn),
                static_cast<std::uint8_t>(vcsPerVn)};
        }
    } else {
        // Chiplet routing carves three phase classes out of the
        // (uniform) VC range, so it needs at least 3 VCs.
        params.numVcs = kind == TopologyKind::ChipletMesh ? 3 : 2;
    }
    Network net(params, topo);

    SyntheticTraffic traffic(TrafficPattern::UniformRandom, nodes, 4, {});
    Rng rng(seed * 17 + 3);
    std::uint64_t id = 1;
    const Cycle horizon = 2000;
    for (Cycle now = 0; now < horizon; ++now) {
        for (NodeId src = 0; src < nodes; ++src) {
            if (!rng.chance(0.08) || !net.canInject(src, 5))
                continue;
            const VirtualNet vn =
                vnets ? static_cast<VirtualNet>(rng.next() % numVnets)
                      : VirtualNet::Reply;
            const bool reqSide = vn == VirtualNet::Request ||
                                 vn == VirtualNet::ForwardedRequest;
            Message m =
                makeMsg(src, traffic.dest(src, rng),
                        reqSide ? MsgType::ReadReq : MsgType::ReadReply,
                        (src % 3) ? TrafficClass::Gpu : TrafficClass::Cpu,
                        id);
            m.id = id++;
            net.inject(m, reqSide ? 1 : 5, now, vn);
        }
        // Mid-run stats reset: the warmup-straddler bookkeeping must
        // also be partition-independent.
        if (now == horizon / 4)
            net.resetStats();
        net.tick(now);
        drainReady(net);
    }
    net.checkAllInvariants();

    const NetworkStats &s = net.stats();
    std::ostringstream os;
    os << s.packetsInjected.value() << ' ' << s.packetsDelivered.value()
       << ' ' << s.flitsDelivered.value() << ' ' << s.packetLatency.sum()
       << ' ' << s.packetLatency.count() << ' '
       << s.cpuPacketLatency.sum() << ' ' << s.gpuPacketLatency.sum()
       << ' ' << s.warmupStraddlers.value() << ' '
       << net.totalLinkTraversals()
       << ' ' << net.totalSwitchTraversals() << ' '
       << net.totalBufferWrites() << ' ' << net.flitsInFlight();
    for (int vn = 0; vn < numVnets; ++vn) {
        os << ' ' << s.vnPacketsInjected[vn].value() << ' '
           << s.vnFlitsDelivered[vn].value() << ' '
           << s.vnInjectionStalls[vn].value() << ' ' << s.vnPeakFlits[vn];
    }
    os << ' ' << s.interposerFlits.value() << ' ' << s.interposerPeakFlits
       << ' ' << net.interposerFlitsInFlight();
    return os.str();
}

struct PartitionCase
{
    TopologyKind kind;
    bool vnets;
};

class PartitionIndependence
    : public ::testing::TestWithParam<PartitionCase>
{
};

void
expectPartitionIndependent(TopologyKind kind, bool vnets, int stages)
{
    const std::string serial = fingerprint(kind, 1, vnets, 42, stages);
    EXPECT_NE(serial.find(' '), std::string::npos);
    EXPECT_EQ(serial, fingerprint(kind, 4, vnets, 42, stages));
    // An uneven partition (3 domains over the router range) must be
    // just as unobservable as the even one.
    EXPECT_EQ(serial, fingerprint(kind, 3, vnets, 42, stages));
    EXPECT_NE(serial, fingerprint(kind, 4, vnets, 43, stages))
        << "different seeds should not collide on every statistic";
}

TEST_P(PartitionIndependence, FourThreadsMatchOneThread)
{
    const PartitionCase c = GetParam();
    expectPartitionIndependent(c.kind, c.vnets, 4);
}

/**
 * The tightest cross-domain delay: at one router stage (and no
 * interposer latency) the wheel has one slot, and a flit or credit sent
 * across a domain boundary is due on the very next cycle. The serial
 * merge must have filed it before the next compute run.
 */
TEST(PartitionIndependenceOneStage, Mesh)
{
    expectPartitionIndependent(TopologyKind::Mesh, false, 1);
}

TEST(PartitionIndependenceOneStage, ChipletMesh)
{
    expectPartitionIndependent(TopologyKind::ChipletMesh, false, 1);
}

std::string
caseName(const ::testing::TestParamInfo<PartitionCase> &info)
{
    std::string name;
    switch (info.param.kind) {
      case TopologyKind::Mesh: name = "Mesh"; break;
      case TopologyKind::Crossbar: name = "Crossbar"; break;
      case TopologyKind::FlattenedButterfly: name = "Fbfly"; break;
      case TopologyKind::Dragonfly: name = "Dragonfly"; break;
      case TopologyKind::ChipletMesh: name = "Chiplet"; break;
    }
    return name + (info.param.vnets ? "Vnets" : "");
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, PartitionIndependence,
    ::testing::Values(
        PartitionCase{TopologyKind::Mesh, false},
        PartitionCase{TopologyKind::Mesh, true},
        PartitionCase{TopologyKind::Crossbar, false},
        PartitionCase{TopologyKind::Crossbar, true},
        PartitionCase{TopologyKind::FlattenedButterfly, false},
        PartitionCase{TopologyKind::FlattenedButterfly, true},
        PartitionCase{TopologyKind::Dragonfly, false},
        PartitionCase{TopologyKind::Dragonfly, true},
        // Chiplet + vnets is covered by the whole-system matrix: four
        // 3-VC phase classes do not fit the 8-VC cap of one raw kernel.
        PartitionCase{TopologyKind::ChipletMesh, false}),
    caseName);

/**
 * Chiplet meshes snap the domain partition to whole chiplet rows so a
 * domain boundary never cuts through a chiplet: interposer links are
 * the only cross-domain channels, which keeps the narrow-link staging
 * traffic off the intra-chiplet fast paths.
 */
TEST(ParallelEngine, ChipletDomainsAlignToChipletBoundaries)
{
    const Topology topo = Topology::makeChipletMesh(2, 4, 2, 2, 1);
    NetworkParams params;
    params.numVcs = 3;
    params.routing = RoutingKind::ChipletHierarchical;
    params.injBufferFlits.assign(topo.nodes(), 8);
    params.threads = 4;
    Network net(params, topo);

    EXPECT_EQ(net.numDomains(), 4);  // one per chiplet row
    std::vector<int> chipletDomain(topo.chipletsX() * topo.chipletsY(), -1);
    for (int r = 0; r < topo.routers(); ++r) {
        // Every router of a chiplet lives in that chiplet row's domain.
        EXPECT_EQ(net.domainOfRouter(r), topo.yOf(r) / topo.chipletSubH())
            << "router " << r;
        int &d = chipletDomain[topo.chipletOf(r)];
        if (d < 0)
            d = net.domainOfRouter(r);
        EXPECT_EQ(net.domainOfRouter(r), d)
            << "chiplet split across domains at router " << r;
    }
    for (NodeId n = 0; n < topo.nodes(); ++n)
        EXPECT_EQ(net.domainOfNode(n),
                  net.domainOfRouter(topo.attachRouter(n)));

    // More threads than chiplet rows must clamp, never split a chiplet.
    params.threads = 7;
    Network clamped(params, topo);
    EXPECT_EQ(clamped.numDomains(), 4);
}

/**
 * Every switch traversal sends its flit over exactly one link, so the
 * link count is the switch count (Network::totalLinkTraversals) and
 * both equal the flits the routers' output ports sent — on a 2-domain
 * chiplet mesh, where flits cross domains, and across a mid-run
 * resetStats().
 */
TEST(ParallelEngine, LinkTraversalsEqualSwitchTraversals)
{
    const Topology topo = Topology::makeChipletMesh(2, 2, 2, 2, 1);
    NetworkParams params;
    params.numVcs = 3;
    params.routing = RoutingKind::ChipletHierarchical;
    params.injBufferFlits.assign(topo.nodes(), 36);
    params.threads = 2;
    Network net(params, topo);
    ASSERT_EQ(net.numDomains(), 2);

    SyntheticTraffic traffic(TrafficPattern::UniformRandom, topo.nodes(), 4,
                             {});
    Rng rng(7);
    std::uint64_t id = 1;
    for (Cycle now = 0; now < 1500; ++now) {
        for (NodeId src = 0; src < topo.nodes(); ++src) {
            if (rng.chance(0.1) && net.canInject(src, 5)) {
                net.inject(makeMsg(src, traffic.dest(src, rng),
                                   MsgType::ReadReply, TrafficClass::Gpu,
                                   id++),
                           5, now);
            }
        }
        if (now == 500)
            net.resetStats();
        net.tick(now);
        drainReady(net);
    }

    std::uint64_t portFlits = 0;
    for (int r = 0; r < topo.routers(); ++r) {
        for (const std::uint64_t sent : net.routerStats(r).portFlitsSent)
            portFlits += sent;
    }
    EXPECT_GT(portFlits, 0u);
    EXPECT_EQ(net.totalSwitchTraversals(), portFlits);
    EXPECT_EQ(net.totalLinkTraversals(), portFlits);
}

/**
 * One parallel run per busy cycle (DESIGN.md §11): a standalone
 * network's tick is the compute run and then the serial merge, which
 * files the cross-domain arrivals itself. N loaded ticks of a 4-domain
 * mesh cost exactly N runs: an idle tick would cost none, and a commit
 * run would make it 2N.
 */
TEST(ParallelEngine, BusyTickCostsOnePoolRun)
{
    const Topology topo = Topology::makeMesh(4, 4);
    NetworkParams params;
    params.injBufferFlits.assign(topo.nodes(), 36);
    params.threads = 4;
    Network net(params, topo);
    ASSERT_EQ(net.numDomains(), 4);

    SyntheticTraffic traffic(TrafficPattern::UniformRandom, topo.nodes(), 4,
                             {});
    Rng rng(11);
    std::uint64_t id = 1;
    const Cycle warmup = 100;
    const Cycle ticks = 1000;
    std::uint64_t runsBefore = 0;
    std::uint64_t flitsBefore = 0;
    for (Cycle now = 0; now < warmup + ticks; ++now) {
        if (now == warmup) {
            runsBefore = NetworkTestAccess::poolRuns(net);
            flitsBefore = net.stats().flitsDelivered.value();
        }
        for (NodeId src = 0; src < topo.nodes(); ++src) {
            if (rng.chance(0.2) && net.canInject(src, 5)) {
                net.inject(makeMsg(src, traffic.dest(src, rng),
                                   MsgType::ReadReply, TrafficClass::Gpu,
                                   id++),
                           5, now);
            }
        }
        net.tick(now);
        drainReady(net);
    }
    EXPECT_GT(net.stats().flitsDelivered.value(), flitsBefore);
    EXPECT_EQ(NetworkTestAccess::poolRuns(net) - runsBefore, ticks);
}

/**
 * Endpoints inject inside the compute run, after their domain's sweep
 * (DESIGN.md §11, §13), and the inject counters are per domain until
 * the merge folds them. A net idle at the start of the cycle skips its
 * sweep, but a send in the run must still be merged and counted in the
 * same cycle, or a run's last cycle would drop it from the stats.
 */
TEST(ParallelEngine, WorkInjectingIntoIdleNetIsCountedThatCycle)
{
    const Topology topo = Topology::makeMesh(4, 4);
    NetworkParams params;
    params.injBufferFlits.assign(topo.nodes(), 36);
    params.threads = 2;
    Network net(params, topo);
    TickPool pool(net.numDomains());
    const NodeId last = static_cast<NodeId>(topo.nodes() - 1);
    ASSERT_TRUE(net.quiescent());
    Network *const nets[] = {&net};
    Network::tickAll(pool, nets, 0, [&](int d, Cycle now) {
        if (d == net.domainOfNode(last))
            net.inject(makeMsg(last, 0, MsgType::ReadReply,
                               TrafficClass::Gpu, 1),
                       5, now);
    });
    EXPECT_EQ(net.stats().packetsInjected.value(), 1u);
    EXPECT_FALSE(net.quiescent()) << "the packet waits in its NI";
}

/**
 * Every built-in topology attaches nodes in router order, so the
 * partition always gets the domains it asks for: min(threads, routers),
 * and for chiplet meshes at most one per chiplet row. A topology that
 * broke that order would make the constructor panic rather than fall
 * back to one domain.
 */
TEST(ParallelEngine, EveryTopologyGetsTheRequestedDomains)
{
    std::vector<Topology> topos;
    for (const int side : {4, 8, 16}) {
        for (const TopologyKind kind :
             {TopologyKind::Mesh, TopologyKind::Crossbar,
              TopologyKind::FlattenedButterfly, TopologyKind::Dragonfly})
            topos.push_back(Topology::make(kind, side * side, side, side));
    }
    topos.push_back(Topology::makeChipletMesh(2, 2, 2, 2, 1));
    topos.push_back(Topology::makeChipletMesh(2, 4, 2, 2, 1));
    topos.push_back(Topology::makeChipletMesh(4, 4, 4, 4, 2));

    for (const Topology &topo : topos) {
        const bool chiplet = topo.kind() == TopologyKind::ChipletMesh;
        NetworkParams params;
        params.numVcs = chiplet ? 3 : 2;
        params.routing = topo.kind() == TopologyKind::Mesh
                             ? RoutingKind::DimOrderXY
                         : chiplet ? RoutingKind::ChipletHierarchical
                                   : RoutingKind::TableMinimal;
        params.injBufferFlits.assign(topo.nodes(), 8);
        for (const int threads : {2, 3, 4, 8}) {
            params.threads = threads;
            Network net(params, topo);
            int expected = std::min(threads, topo.routers());
            if (chiplet)
                expected = std::min(expected, topo.chipletsY());
            EXPECT_EQ(net.numDomains(), expected)
                << topologyName(topo.kind()) << ' ' << topo.nodes()
                << " nodes, " << threads << " threads";
        }
    }
}

/**
 * End-to-end Delegated Replies run (delegation + delegate-not-found
 * path active) through the full protocol stack: the threaded engine
 * must reproduce the single-threaded golden exactly, down to the
 * floating-point metrics.
 */
TEST(ParallelEngine, DrProtocolEndToEndMatchesSerialGolden)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mechanism = Mechanism::DelegatedReplies;
    cfg.warmupCycles = 4000;
    cfg.simCycles = 8000;

    cfg.noc.threads = 1;
    const RunResults serial = runWorkload(cfg, "HS", "blackscholes");
    cfg.noc.threads = 4;
    const RunResults parallel = runWorkload(cfg, "HS", "blackscholes");

    // The run must actually exercise the DR machinery.
    EXPECT_GT(serial.delegations, 0u);
    EXPECT_GT(serial.l1Misses, 100u);

    EXPECT_EQ(serial.cycles, parallel.cycles);
    EXPECT_DOUBLE_EQ(serial.gpuIpc, parallel.gpuIpc);
    EXPECT_DOUBLE_EQ(serial.cpuIpc, parallel.cpuIpc);
    EXPECT_DOUBLE_EQ(serial.cpuLatency, parallel.cpuLatency);
    EXPECT_DOUBLE_EQ(serial.gpuDataRate, parallel.gpuDataRate);
    EXPECT_DOUBLE_EQ(serial.memBlockingRate, parallel.memBlockingRate);
    EXPECT_EQ(serial.l1Misses, parallel.l1Misses);
    EXPECT_EQ(serial.missesWithRemoteCopy, parallel.missesWithRemoteCopy);
    EXPECT_EQ(serial.delegations, parallel.delegations);
    EXPECT_EQ(serial.frqRemoteHits, parallel.frqRemoteHits);
    EXPECT_EQ(serial.frqDelayedHits, parallel.frqDelayedHits);
    EXPECT_EQ(serial.frqRemoteMisses, parallel.frqRemoteMisses);
    EXPECT_EQ(serial.requestsInjected, parallel.requestsInjected);
    EXPECT_EQ(serial.switchTraversals, parallel.switchTraversals);
    EXPECT_EQ(serial.bufferWrites, parallel.bufferWrites);
    EXPECT_EQ(serial.linkTraversals, parallel.linkTraversals);
    EXPECT_DOUBLE_EQ(serial.gpuL1MissRate, parallel.gpuL1MissRate);
    EXPECT_DOUBLE_EQ(serial.llcHitRate, parallel.llcHitRate);
}

} // namespace
} // namespace dr

#include <gtest/gtest.h>

#include <set>

#include "noc/synthetic_traffic.hpp"
#include "noc/vnet.hpp"

namespace dr
{
namespace
{

TEST(SyntheticPatterns, TransposeSwapsCoordinates)
{
    SyntheticTraffic t(TrafficPattern::Transpose, 64, 8);
    Rng rng(1);
    // (x=3, y=1) = node 11 -> (x=1, y=3) = node 25.
    EXPECT_EQ(t.dest(11, rng), 25);
    EXPECT_EQ(t.dest(25, rng), 11);
}

TEST(SyntheticPatterns, BitComplementMirrors)
{
    SyntheticTraffic t(TrafficPattern::BitComplement, 64, 8);
    Rng rng(1);
    EXPECT_EQ(t.dest(0, rng), 63);
    EXPECT_EQ(t.dest(63, rng), 0);
    EXPECT_EQ(t.dest(10, rng), 53);
}

TEST(SyntheticPatterns, NeighborIsRingSuccessor)
{
    SyntheticTraffic t(TrafficPattern::Neighbor, 16, 4);
    Rng rng(1);
    EXPECT_EQ(t.dest(5, rng), 6);
    EXPECT_EQ(t.dest(15, rng), 0);
}

TEST(SyntheticPatterns, HotspotTargetsOnlyHotspots)
{
    SyntheticTraffic t(TrafficPattern::Hotspot, 64, 8, {7, 21});
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const NodeId d = t.dest(3, rng);
        EXPECT_TRUE(d == 7 || d == 21);
    }
}

TEST(SyntheticPatterns, NeverSendsToSelf)
{
    for (const TrafficPattern p :
         {TrafficPattern::UniformRandom, TrafficPattern::Transpose,
          TrafficPattern::BitComplement, TrafficPattern::Neighbor}) {
        SyntheticTraffic t(p, 16, 4);
        Rng rng(5);
        for (NodeId src = 0; src < 16; ++src) {
            for (int i = 0; i < 20; ++i)
                EXPECT_NE(t.dest(src, rng), src)
                    << trafficPatternName(p);
        }
    }
}

TEST(SyntheticPatterns, UniformCoversManyDestinations)
{
    SyntheticTraffic t(TrafficPattern::UniformRandom, 64, 8);
    Rng rng(9);
    std::set<NodeId> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(t.dest(0, rng));
    EXPECT_GT(seen.size(), 50u);
}

TEST(SyntheticLoad, LowLoadHasLowLatency)
{
    const SyntheticResult r = runSyntheticLoad(
        TopologyKind::Mesh, 16, 4, 4, TrafficPattern::UniformRandom,
        0.01, 5, 5000);
    EXPECT_GT(r.packetsDelivered, 100u);
    EXPECT_LT(r.avgLatency, 60.0);
    EXPECT_NEAR(r.acceptedFlitsPerNode, r.offeredFlitsPerNode,
                r.offeredFlitsPerNode * 0.4);
}

TEST(SyntheticLoad, ThroughputSaturates)
{
    const SyntheticResult low = runSyntheticLoad(
        TopologyKind::Mesh, 16, 4, 4, TrafficPattern::UniformRandom,
        0.02, 5, 5000);
    const SyntheticResult high = runSyntheticLoad(
        TopologyKind::Mesh, 16, 4, 4, TrafficPattern::UniformRandom,
        0.5, 5, 5000);
    EXPECT_GT(high.acceptedFlitsPerNode, low.acceptedFlitsPerNode);
    // Far beyond saturation the accepted rate is well below offered.
    EXPECT_LT(high.acceptedFlitsPerNode, high.offeredFlitsPerNode * 0.8);
    // And latency explodes relative to low load.
    EXPECT_GT(high.avgLatency, 2.0 * low.avgLatency);
}

TEST(SyntheticLoad, HotspotSaturatesBeforeUniform)
{
    // The clogging pattern: everyone sends to two nodes. Accepted
    // throughput must be far below uniform at the same offered load.
    const SyntheticResult uniform = runSyntheticLoad(
        TopologyKind::Mesh, 64, 8, 8, TrafficPattern::UniformRandom,
        0.06, 5, 6000);
    const SyntheticResult hotspot = runSyntheticLoad(
        TopologyKind::Mesh, 64, 8, 8, TrafficPattern::Hotspot, 0.06, 5,
        6000);
    EXPECT_LT(hotspot.acceptedFlitsPerNode,
              0.6 * uniform.acceptedFlitsPerNode);
}

TEST(SyntheticLoad, WorksOnAllTopologies)
{
    for (const TopologyKind topo :
         {TopologyKind::Mesh, TopologyKind::Crossbar,
          TopologyKind::FlattenedButterfly, TopologyKind::Dragonfly}) {
        const SyntheticResult r = runSyntheticLoad(
            topo, 64, 8, 8, TrafficPattern::UniformRandom, 0.02, 5,
            3000);
        EXPECT_GT(r.packetsDelivered, 100u) << topologyName(topo);
    }
}

TEST(SyntheticLoad, MixedVnetsReachEveryVnAndBothQueues)
{
    // The virtual-network partition: 4 VCs, one per VN.
    NetworkParams params;
    params.injBufferFlits.assign(64, 36);
    params.numVcs = numVnets;
    params.vnPriority = true;
    params.layout.numVcs = numVnets;
    for (int vn = 0; vn < numVnets; ++vn)
        params.layout.range[vn] = {static_cast<std::uint8_t>(vn), 1};
    const Topology topo = Topology::makeMesh(8, 8);
    Network net(params, topo);
    const Cycle cycles = 2000;
    const SyntheticResult r =
        driveSyntheticLoad(net, TrafficPattern::UniformRandom, 8, 0.05, 5,
                           cycles, 1, /*mixVnets=*/true);
    EXPECT_GT(r.packetsDelivered, 1000u);
    for (int vn = 0; vn < numVnets; ++vn)
        EXPECT_GT(net.stats().vnPacketsInjected[vn].value(), 0u)
            << vnetName(static_cast<VirtualNet>(vn));

    // The driver drained both queues; the packets still in flight land
    // on the queue of their type: 1-flit ReadReqs on the request side.
    int requests = 0;
    int replies = 0;
    for (NodeId n = 0; n < 64; ++n) {
        EXPECT_FALSE(net.hasMessage(n, NetKind::Request));
        EXPECT_FALSE(net.hasMessage(n, NetKind::Reply));
    }
    for (Cycle now = cycles; now < cycles + 200; ++now) {
        net.tick(now);
        for (NodeId n = 0; n < 64; ++n) {
            for (; net.hasMessage(n, NetKind::Request); ++requests)
                EXPECT_EQ(net.popMessage(n, NetKind::Request).type,
                          MsgType::ReadReq);
            for (; net.hasMessage(n, NetKind::Reply); ++replies)
                EXPECT_EQ(net.popMessage(n, NetKind::Reply).type,
                          MsgType::ReadReply);
        }
    }
    EXPECT_GT(requests, 0);
    EXPECT_GT(replies, 0);
}

TEST(SyntheticLoad, RunIsDriveOnAFreshNetwork)
{
    // runSyntheticLoad's network: XY on a mesh, table routing elsewhere,
    // 36-flit injection buffers, the traffic seed as the network seed.
    for (const TopologyKind kind :
         {TopologyKind::Mesh, TopologyKind::FlattenedButterfly}) {
        const SyntheticResult run = runSyntheticLoad(
            kind, 64, 8, 8, TrafficPattern::Hotspot, 0.05, 5, 2000, 3);
        const Topology topo = Topology::make(kind, 64, 8, 8);
        NetworkParams params;
        params.routing = kind == TopologyKind::Mesh
                             ? RoutingKind::DimOrderXY
                             : RoutingKind::TableMinimal;
        params.injBufferFlits.assign(64, 36);
        params.seed = 3;
        Network net(params, topo);
        const SyntheticResult drive = driveSyntheticLoad(
            net, TrafficPattern::Hotspot, 8, 0.05, 5, 2000, 3);
        EXPECT_GT(run.packetsDelivered, 100u) << topologyName(kind);
        EXPECT_EQ(run.packetsDelivered, drive.packetsDelivered);
        EXPECT_EQ(run.avgLatency, drive.avgLatency);
        EXPECT_EQ(run.acceptedFlitsPerNode, drive.acceptedFlitsPerNode);
        EXPECT_EQ(run.offeredFlitsPerNode, drive.offeredFlitsPerNode);
    }
}

} // namespace
} // namespace dr

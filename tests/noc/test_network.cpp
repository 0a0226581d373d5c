#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "network_test_access.hpp"

namespace dr
{
namespace
{

NetworkParams
paramsFor(const Topology &topo, RoutingKind routing = RoutingKind::DimOrderXY)
{
    NetworkParams p;
    p.numVcs = 2;
    p.vcDepthFlits = 4;
    p.routerStages = 4;
    p.ejBufferFlits = 18;
    p.injBufferFlits.assign(topo.nodes(), 36);
    p.routing = routing;
    return p;
}

Message
makeMsg(NodeId src, NodeId dst, MsgType type = MsgType::ReadReq,
        TrafficClass cls = TrafficClass::Gpu, std::uint64_t id = 1)
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

/** Run the network until quiescent or maxCycles. */
Cycle
drain(Network &net, Cycle from, Cycle maxCycles)
{
    for (Cycle c = from; c < from + maxCycles; ++c)
        net.tick(c);
    return from + maxCycles;
}

TEST(Network, DeliversSingleFlitPacket)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(paramsFor(topo), topo);
    ASSERT_TRUE(net.canInject(0, 1));
    net.inject(makeMsg(0, 15), 1, 0);
    drain(net, 0, 200);
    ASSERT_TRUE(net.hasMessage(15, NetKind::Request));
    const Message got = net.popMessage(15, NetKind::Request);
    EXPECT_EQ(got.src, 0);
    EXPECT_EQ(got.dst, 15);
    EXPECT_EQ(got.id, 1u);
    EXPECT_FALSE(net.hasMessage(15, NetKind::Request));
}

TEST(Network, DeliversMultiFlitPacket)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(paramsFor(topo), topo);
    net.inject(makeMsg(3, 12, MsgType::ReadReply), 9, 0);
    drain(net, 0, 300);
    ASSERT_TRUE(net.hasMessage(12, NetKind::Reply));
    EXPECT_EQ(net.stats().flitsDelivered.value(), 9u);
}

TEST(Network, ZeroLoadLatencyMatchesPipeline)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(paramsFor(topo), topo);
    // 0 -> 1 traverses the source and destination routers: NI link (1)
    // plus two router pipelines of 4 cycles each (link included) = 9.
    net.inject(makeMsg(0, 1), 1, 0);
    Cycle delivered = 0;
    for (Cycle c = 0; c < 100 && !delivered; ++c) {
        net.tick(c);
        if (net.hasMessage(1, NetKind::Request))
            delivered = c;
    }
    ASSERT_GT(delivered, 0u);
    EXPECT_LE(delivered, 10u);
    EXPECT_NEAR(net.stats().packetLatency.mean(),
                static_cast<double>(delivered), 1.0);
}

TEST(NetworkDeath, ZeroStageRouterIsFatal)
{
    // A zero-stage router would forward a flit in the cycle it arrived,
    // making schedules depend on the domain partition.
    const Topology topo = Topology::makeMesh(2, 2);
    NetworkParams p = paramsFor(topo);
    p.routerStages = 0;
    EXPECT_EXIT({ Network net(p, topo); }, testing::ExitedWithCode(1),
                "at least one stage");
}

TEST(NetworkDeath, NegativeInterposerLatencyIsFatal)
{
    // Raw NetworkParams skip SystemConfig::validate(); a negative
    // latency would schedule interposer arrivals in the past.
    const Topology topo = Topology::makeMesh(2, 2);
    NetworkParams p = paramsFor(topo);
    p.interposerLatency = -1;
    EXPECT_EXIT({ Network net(p, topo); }, testing::ExitedWithCode(1),
                "network net: interposerLatency must be >= 0, got -1");
}

TEST(NetworkDeath, ZeroInterposerSerializationIsFatal)
{
    const Topology topo = Topology::makeMesh(2, 2);
    NetworkParams p = paramsFor(topo);
    p.interposerSerialization = 0;
    EXPECT_EXIT({ Network net(p, topo); }, testing::ExitedWithCode(1),
                "network net: interposerSerialization must be >= 1, got 0");
}

TEST(NetworkDeath, TickSkippingCyclesWithArrivalsInFlightPanics)
{
    // Arrivals wait in wheel slots by due cycle, so ticks must stay
    // contiguous while any is in flight.
    const Topology topo = Topology::makeMesh(2, 2);
    NetworkParams p = paramsFor(topo);
    p.threads = 1;
    Network net(p, topo);
    net.inject(makeMsg(0, 3), 1, 0);
    net.tick(0);  // the head flit reaches router 0 on cycle 1
    EXPECT_DEATH(net.tick(2), "tick\\(2\\) does not follow tick\\(0\\)");
}

TEST(ArrivalWheel, DormantRouterWakesOnTheDueCycle)
{
    // Router 0 forwards a flit on cycle 1; with 4 stages it reaches
    // router 1 on cycle 5. Until then router 1 has nothing but that
    // arrival in flight and stays out of the active set; on cycle 5 it
    // is swept and forwards the flit toward router 2 at once.
    const Topology topo = Topology::makeMesh(4, 4);
    NetworkParams p = paramsFor(topo);
    p.threads = 1;
    Network net(p, topo);
    net.inject(makeMsg(0, 3), 1, 0);
    net.tick(0);
    net.tick(1);
    ASSERT_EQ(net.routerStats(0).switchTraversals, 1u);
    for (Cycle c = 2; c <= 5; ++c) {
        EXPECT_FALSE(NetworkTestAccess::routerActive(net, 1))
            << "before cycle " << c;
        EXPECT_EQ(net.routerStats(1).bufferWrites, 0u);
        EXPECT_EQ(net.flitsInFlight(), 1);
        net.checkAllInvariants();
        net.tick(c);
    }
    EXPECT_EQ(net.routerStats(1).bufferWrites, 1u);
    EXPECT_EQ(net.routerStats(1).switchTraversals, 1u);
}

TEST(ArrivalWheel, DormantNiWakesOnTheDueCycle)
{
    // Router 0 forwards a flit to router 1 on cycle 1, which returns NI
    // 0's credit (due cycle 2) and, 4 stages later, ejects the flit
    // toward node 1 on cycle 5 (due cycle 9). Neither NI is swept for a
    // credit or a flit still in flight: NI 1 joins the active set on
    // cycle 9 and reassembles the packet then.
    const Topology topo = Topology::makeMesh(4, 4);
    NetworkParams p = paramsFor(topo);
    p.threads = 1;
    Network net(p, topo);
    net.inject(makeMsg(0, 1), 1, 0);
    net.tick(0);
    net.tick(1);
    ASSERT_EQ(net.routerStats(0).switchTraversals, 1u);
    EXPECT_FALSE(NetworkTestAccess::niActive(net, 0));
    for (Cycle c = 2; c <= 5; ++c)
        net.tick(c);
    ASSERT_EQ(net.routerStats(1).switchTraversals, 1u);
    for (Cycle c = 6; c <= 9; ++c) {
        EXPECT_FALSE(NetworkTestAccess::niActive(net, 1))
            << "before cycle " << c;
        EXPECT_FALSE(net.hasMessage(1, NetKind::Request));
        EXPECT_EQ(net.flitsInFlight(), 1);
        net.checkAllInvariants();
        net.tick(c);
    }
    EXPECT_TRUE(net.hasMessage(1, NetKind::Request));
    EXPECT_EQ(net.flitsEjectedAt(1), 1u);
    EXPECT_EQ(net.flitsInFlight(), 0);
    net.checkAllInvariants();
}

TEST(Network, LatencyGrowsWithDistance)
{
    const Topology topo = Topology::makeMesh(8, 8);
    Network netNear(paramsFor(topo), topo);
    Network netFar(paramsFor(topo), topo);
    netNear.inject(makeMsg(0, 1), 1, 0);
    netFar.inject(makeMsg(0, 63), 1, 0);
    drain(netNear, 0, 300);
    drain(netFar, 0, 300);
    EXPECT_GT(netFar.stats().packetLatency.mean(),
              netNear.stats().packetLatency.mean());
}

/** A message to its own node panics on the request network too. */
TEST(Network, LocalDeliveryBypassesNetwork)
{
    const Topology topo = Topology::makeMesh(4, 4);
    EXPECT_DEATH(
        {
            Network net(paramsFor(topo), topo);
            net.inject(makeMsg(5, 5), 1, 0);
        },
        "node 5 injects a message to itself");
}

TEST(Network, InjectionBufferFillsUp)
{
    const Topology topo = Topology::makeMesh(4, 4);
    NetworkParams p = paramsFor(topo);
    p.injBufferFlits.assign(topo.nodes(), 10);
    Network net(p, topo);
    EXPECT_TRUE(net.canInject(0, 9));
    net.inject(makeMsg(0, 15, MsgType::ReadReply), 9, 0);
    EXPECT_FALSE(net.canInject(0, 9));
    EXPECT_TRUE(net.canInject(0, 1));
    net.inject(makeMsg(0, 15), 1, 0);
    EXPECT_FALSE(net.canInject(0, 1));
}

TEST(Network, InjectionBufferDrains)
{
    const Topology topo = Topology::makeMesh(4, 4);
    NetworkParams p = paramsFor(topo);
    p.injBufferFlits.assign(topo.nodes(), 10);
    Network net(p, topo);
    net.inject(makeMsg(0, 15, MsgType::ReadReply), 9, 0);
    drain(net, 0, 100);
    EXPECT_TRUE(net.canInject(0, 10));
}

TEST(Network, BackpressureWhenEjectionNotConsumed)
{
    // Saturate a destination that never consumes: the finite ejection
    // buffer must stop the flood without losing packets.
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(paramsFor(topo), topo);
    Cycle now = 0;
    std::uint64_t id = 1;
    int injected = 0;
    for (; now < 2000; ++now) {
        if (net.canInject(0, 9)) {
            net.inject(makeMsg(0, 15, MsgType::ReadReply, TrafficClass::Gpu,
                               id++),
                       9, now);
            ++injected;
        }
        net.tick(now);
    }
    // The ejection buffer (18 flits) holds at most 2 complete packets;
    // everything else must be throttled inside the network.
    EXPECT_GT(injected, 4);
    EXPECT_LT(net.stats().packetsDelivered.value() * 9,
              net.stats().flitsDelivered.value() + 19);
    // Consuming restores flow: all injected packets eventually arrive.
    int received = 0;
    for (; now < 20000; ++now) {
        while (net.hasMessage(15, NetKind::Reply)) {
            net.popMessage(15, NetKind::Reply);
            ++received;
        }
        net.tick(now);
        if (received == injected && net.routerOccupancy() == 0)
            break;
    }
    EXPECT_EQ(received, injected);
}

TEST(Network, CpuPriorityLowersCpuLatency)
{
    // Moderate random GPU load plus sparse CPU packets over the same
    // links: arbitration priority must give CPU traffic lower latency.
    // (Under full saturation priority cannot help — FIFO VC buffers
    // cannot be reordered — which is exactly the paper's clogging
    // argument.)
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(paramsFor(topo), topo);
    Rng rng(1);
    std::uint64_t id = 1;
    Cycle now = 0;
    auto randomDest = [&](NodeId src) {
        NodeId dst = static_cast<NodeId>(rng.below(16));
        return dst == src ? static_cast<NodeId>((dst + 1) % 16) : dst;
    };
    for (; now < 20000; ++now) {
        for (NodeId src = 0; src < 16; ++src) {
            if (rng.chance(0.04) && net.canInject(src, 9)) {
                net.inject(makeMsg(src, randomDest(src), MsgType::ReadReply,
                                   TrafficClass::Gpu, id++),
                           9, now);
            }
            if (rng.chance(0.005) && net.canInject(src, 5)) {
                net.inject(makeMsg(src, randomDest(src), MsgType::ReadReply,
                                   TrafficClass::Cpu, id++),
                           5, now);
            }
        }
        net.tick(now);
        for (NodeId n = 0; n < 16; ++n) {
            while (net.hasMessage(n, NetKind::Reply))
                net.popMessage(n, NetKind::Reply);
        }
    }
    EXPECT_GT(net.stats().cpuPacketLatency.count(), 100u);
    EXPECT_LT(net.stats().cpuPacketLatency.mean(),
              net.stats().gpuPacketLatency.mean());
}

TEST(Network, RequestAndReplyQueuesSeparate)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(paramsFor(topo), topo);
    net.inject(makeMsg(0, 5, MsgType::ReadReq), 1, 0);
    net.inject(makeMsg(1, 5, MsgType::ProbeNack), 1, 0);
    drain(net, 0, 200);
    EXPECT_TRUE(net.hasMessage(5, NetKind::Request));
    EXPECT_TRUE(net.hasMessage(5, NetKind::Reply));
    EXPECT_EQ(net.popMessage(5, NetKind::Request).type, MsgType::ReadReq);
    EXPECT_EQ(net.popMessage(5, NetKind::Reply).type, MsgType::ProbeNack);
}

struct TopoRoutingCase
{
    TopologyKind topo;
    RoutingKind routing;
};

class NetworkSweep : public ::testing::TestWithParam<TopoRoutingCase>
{};

TEST_P(NetworkSweep, RandomTrafficConservesPackets)
{
    const auto param = GetParam();
    const Topology topo = Topology::make(param.topo, 16, 4, 4);
    Network net(paramsFor(topo, param.routing), topo);
    Rng rng(99);
    std::map<std::uint64_t, NodeId> outstanding;
    std::uint64_t id = 1;
    int received = 0;
    const int toSend = 400;
    int sent = 0;
    Cycle now = 0;
    for (; now < 100000 && received < toSend; ++now) {
        if (sent < toSend) {
            const NodeId src = static_cast<NodeId>(rng.below(16));
            NodeId dst = static_cast<NodeId>(rng.below(16));
            if (dst == src)
                dst = static_cast<NodeId>((dst + 1) % 16);
            const bool reply = rng.chance(0.4);
            const int flits = reply ? 9 : 1;
            const MsgType type =
                reply ? MsgType::ReadReply : MsgType::ReadReq;
            if (net.canInject(src, flits)) {
                net.inject(makeMsg(src, dst, type, TrafficClass::Gpu, id),
                           flits, now);
                outstanding[id] = dst;
                ++id;
                ++sent;
            }
        }
        net.tick(now);
        for (NodeId n = 0; n < 16; ++n) {
            for (const NetKind kind : {NetKind::Request, NetKind::Reply}) {
                while (net.hasMessage(n, kind)) {
                    const Message m = net.popMessage(n, kind);
                    auto it = outstanding.find(m.id);
                    ASSERT_NE(it, outstanding.end())
                        << "duplicate or unknown message";
                    EXPECT_EQ(it->second, n);
                    outstanding.erase(it);
                    ++received;
                }
            }
        }
    }
    EXPECT_EQ(received, toSend)
        << topologyName(param.topo) << "/" << routingName(param.routing);
    EXPECT_TRUE(outstanding.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologiesAndRoutings, NetworkSweep,
    ::testing::Values(
        TopoRoutingCase{TopologyKind::Mesh, RoutingKind::DimOrderXY},
        TopoRoutingCase{TopologyKind::Mesh, RoutingKind::DimOrderYX},
        TopoRoutingCase{TopologyKind::Mesh, RoutingKind::DyXY},
        TopoRoutingCase{TopologyKind::Mesh, RoutingKind::Footprint},
        TopoRoutingCase{TopologyKind::Mesh, RoutingKind::Hare},
        TopoRoutingCase{TopologyKind::Crossbar, RoutingKind::TableMinimal},
        TopoRoutingCase{TopologyKind::FlattenedButterfly,
                        RoutingKind::TableMinimal},
        TopoRoutingCase{TopologyKind::Dragonfly,
                        RoutingKind::TableMinimal}),
    [](const ::testing::TestParamInfo<TopoRoutingCase> &tpi) {
        std::string name = topologyName(tpi.param.topo);
        name += "_";
        name += routingName(tpi.param.routing);
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(Network, PerPairOrderingPreserved)
{
    // Messages between one (src, dst) pair with the same class and type
    // must arrive in injection order (single path, per-VC FIFO).
    const Topology topo = Topology::makeMesh(4, 4);
    NetworkParams p = paramsFor(topo);
    p.numVcs = 1;  // single VC forces strict ordering
    Network net(p, topo);
    std::uint64_t id = 1;
    Cycle now = 0;
    std::uint64_t lastSeen = 0;
    int received = 0;
    while (received < 50 && now < 20000) {
        if (id <= 50 && net.canInject(0, 1))
            net.inject(makeMsg(0, 15, MsgType::ReadReq, TrafficClass::Gpu,
                               id++),
                       1, now);
        net.tick(now);
        while (net.hasMessage(15, NetKind::Request)) {
            const Message m = net.popMessage(15, NetKind::Request);
            EXPECT_GT(m.id, lastSeen);
            lastSeen = m.id;
            ++received;
        }
        ++now;
    }
    EXPECT_EQ(received, 50);
}

TEST(Network, UtilizationStatsPopulated)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(paramsFor(topo), topo);
    Cycle now = 0;
    std::uint64_t id = 1;
    for (; now < 1000; ++now) {
        if (net.canInject(0, 9))
            net.inject(makeMsg(0, 15, MsgType::ReadReply, TrafficClass::Gpu,
                               id++),
                       9, now);
        while (net.hasMessage(15, NetKind::Reply))
            net.popMessage(15, NetKind::Reply);
        net.tick(now);
    }
    EXPECT_GT(net.injectionLinkUtilization(0, now), 0.5);
    EXPECT_GT(net.ejectionLinkUtilization(15, now), 0.5);
    EXPECT_GT(net.totalSwitchTraversals(), 100u);
    EXPECT_GT(net.totalBufferWrites(), 100u);
    EXPECT_GT(net.totalLinkTraversals(), 100u);
    EXPECT_GT(net.flitsEjectedAt(15), 100u);
}

} // namespace
} // namespace dr

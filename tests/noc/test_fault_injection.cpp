#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "network_test_access.hpp"

namespace dr
{
namespace
{

NetworkParams
faultParams(const Topology &topo)
{
    NetworkParams p;
    p.name = "fault-net";
    p.numVcs = 2;
    p.vcDepthFlits = 4;
    p.routerStages = 4;
    p.ejBufferFlits = 18;
    p.injBufferFlits.assign(topo.nodes(), 36);
    p.routing = RoutingKind::DimOrderXY;
    return p;
}

Message
faultMsg(NodeId src, NodeId dst, std::uint64_t id,
         MsgType type = MsgType::ReadReq)
{
    Message m;
    m.type = type;
    m.cls = TrafficClass::Gpu;
    m.src = src;
    m.dst = dst;
    m.requester = src;
    m.id = id;
    return m;
}

void
tickRange(Network &net, Cycle from, Cycle cycles)
{
    for (Cycle c = from; c < from + cycles; ++c)
        net.tick(c);
}

TEST(FaultInjection, CheckersPassOnIdleNetwork)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    net.checkAllInvariants();
    EXPECT_EQ(net.flitsInFlight(), 0);
    EXPECT_EQ(net.conservedFlitsInjected(), 0u);
}

TEST(FaultInjection, CheckersPassWithTrafficInFlight)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    // Multi-flit replies crossing single-flit requests: enough traffic
    // to occupy buffers, arrival wheels and ejection slots at once.
    std::uint64_t id = 1;
    for (NodeId src = 0; src < 8; ++src) {
        net.inject(faultMsg(src, 15 - src, id++), 1, 0);
        net.inject(faultMsg(15 - src, src, id++, MsgType::ReadReply), 9, 0);
    }
    for (Cycle c = 0; c < 40; ++c) {
        net.tick(c);
        // Between ticks the conservation laws must hold exactly, even
        // with every flit mid-flight.
        net.checkAllInvariants();
    }
    EXPECT_GT(net.flitsInFlight(), 0);
}

TEST(FaultInjection, ConservationCountersBalanceAfterDrain)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    net.inject(faultMsg(0, 15, 1), 1, 0);
    net.inject(faultMsg(5, 10, 2, MsgType::ReadReply), 9, 0);
    tickRange(net, 0, 400);
    net.checkAllInvariants();
    EXPECT_EQ(net.flitsInFlight(), 0);
    EXPECT_EQ(net.conservedFlitsInjected(), 10u);
    EXPECT_EQ(net.conservedFlitsEjected(), 10u);
    EXPECT_TRUE(net.hasMessage(15, NetKind::Request));
    EXPECT_TRUE(net.hasMessage(10, NetKind::Reply));
}

TEST(FaultInjection, ConservationCountersSurviveStatsReset)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    net.inject(faultMsg(0, 15, 1), 1, 0);
    tickRange(net, 0, 200);
    net.resetStats();
    // Stats counters go to zero at the warmup boundary; the
    // conservation counters must not, or the law would report every
    // in-flight flit as lost.
    EXPECT_EQ(net.stats().packetsInjected.value(), 0u);
    EXPECT_EQ(net.conservedFlitsInjected(), 1u);
    net.checkAllInvariants();
}

TEST(FaultInjectionDeath, SeededCreditLeakIsCaught)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    // Router 5 is interior: its east port is a router-router link.
    NetworkTestAccess::leakCredit(net, 5, meshEast, 0);
    EXPECT_DEATH(net.checkCreditConservation(),
                 "credit conservation violated");
}

TEST(FaultInjectionDeath, CreditLeakCaughtEvenUnderTraffic)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    net.inject(faultMsg(0, 15, 1), 1, 0);
    net.inject(faultMsg(12, 3, 2, MsgType::ReadReply), 9, 0);
    tickRange(net, 0, 20);
    NetworkTestAccess::leakCredit(net, 9, meshNorth, 1);
    EXPECT_DEATH(net.checkCreditConservation(),
                 "credit conservation violated");
}

TEST(FaultInjectionDeath, LeakOnEmptyLinkPanicsImmediately)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    NetworkTestAccess::leakCredit(net, 0, meshEast, 0);
    NetworkTestAccess::leakCredit(net, 0, meshEast, 0);
    NetworkTestAccess::leakCredit(net, 0, meshEast, 0);
    NetworkTestAccess::leakCredit(net, 0, meshEast, 0);
    // All four credits gone; a fifth leak has nothing left to take.
    EXPECT_DEATH(NetworkTestAccess::leakCredit(net, 0, meshEast, 0),
                 "no credit to leak");
}

TEST(FaultInjectionDeath, NiCreditLeakIsCaught)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    NetworkTestAccess::leakNiCredit(net, 6, 1);
    EXPECT_DEATH(net.checkCreditConservation(),
                 "credit conservation violated on NI6 vc 1");
}

TEST(FaultInjectionDeath, NiCreditLeakCaughtWhileItsReturnIsInFlight)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    // NI 0 sends one flit on cycle 0; router 0 forwards it on cycle 1,
    // which puts the attach-link credit on its way back (due cycle 2).
    net.inject(faultMsg(0, 15, 1), 1, 0);
    tickRange(net, 0, 2);
    ASSERT_EQ(net.routerStats(0).switchTraversals, 1u);
    // The returning credit is counted: the law holds as is ...
    net.checkCreditConservation();
    // ... and a leak of one of the credits NI 0 still holds breaks it.
    NetworkTestAccess::leakNiCredit(net, 0, 0);
    EXPECT_DEATH(net.checkCreditConservation(),
                 "credit conservation violated on NI0 vc 0");
}

TEST(FaultInjectionDeath, NiLeakOnDrainedVcPanicsImmediately)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    for (int i = 0; i < 4; ++i)
        NetworkTestAccess::leakNiCredit(net, 3, 0);
    EXPECT_DEATH(NetworkTestAccess::leakNiCredit(net, 3, 0),
                 "no credit to leak on NI 3 vc 0");
}

TEST(FaultInjectionDeath, EjectSlotLeakIsCaught)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    // A reply heading for node 10 keeps ejection slots reserved and
    // flits in flight toward it; the checker accounts for those and
    // still catches the one slot taken without a flit.
    net.inject(faultMsg(5, 10, 1, MsgType::ReadReply), 9, 0);
    tickRange(net, 0, 14);
    ASSERT_GT(net.flitsEjectedAt(10), 0u);
    ASSERT_GT(net.flitsInFlight(), 0);
    net.checkCreditConservation();
    NetworkTestAccess::leakEjectSlot(net, 10);
    EXPECT_DEATH(net.checkCreditConservation(),
                 "NI10 ejection-slot accounting violated");
}

/**
 * Run `net` from cycle 0 under traffic that crosses a domain boundary
 * at two threads (columns 0 and 3 of a 4x4 mesh, both directions), the
 * credit law checked after every tick, until a credit of the wanted
 * kind is in flight; then drop (`copies` 0) or duplicate (2) it.
 */
bool
tamperCreditInFlight(Network &net, bool crossDomain, int copies)
{
    std::uint64_t id = 1;
    for (NodeId src : {0, 3, 12, 15})
        net.inject(faultMsg(src, 15 - src, id++, MsgType::ReadReply), 9, 0);
    for (Cycle c = 0; c < 200; ++c) {
        net.tick(c);
        net.checkCreditConservation();
        if (NetworkTestAccess::tamperCredit(net, crossDomain, copies))
            return true;
    }
    return false;
}

TEST(FaultInjectionDeath, DroppedCreditIsCaught)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    ASSERT_TRUE(tamperCreditInFlight(net, false, 0));
    EXPECT_DEATH(net.checkCreditConservation(),
                 "credit conservation violated on link");
}

TEST(FaultInjectionDeath, DuplicatedCreditIsCaught)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    ASSERT_TRUE(tamperCreditInFlight(net, false, 2));
    EXPECT_DEATH(net.checkCreditConservation(),
                 "credit conservation violated on link");
}

NetworkParams
twoDomainParams(const Topology &topo)
{
    NetworkParams p = faultParams(topo);
    p.threads = 2;
    return p;
}

TEST(FaultInjectionDeath, DroppedCrossDomainCreditIsCaught)
{
    // Two domains split the mesh between rows 1 and 2: a credit for a
    // flit that went down (or up) a column crosses back through the
    // sender's outgoing credit list and the merge. The pool's worker
    // thread is running, so the death test re-runs the test in a fresh
    // process instead of forking a threaded one.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(twoDomainParams(topo), topo);
    ASSERT_EQ(net.numDomains(), 2);
    ASSERT_TRUE(tamperCreditInFlight(net, true, 0));
    EXPECT_DEATH(net.checkCreditConservation(),
                 "credit conservation violated on link");
}

TEST(FaultInjectionDeath, DuplicatedCrossDomainCreditIsCaught)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(twoDomainParams(topo), topo);
    ASSERT_EQ(net.numDomains(), 2);
    ASSERT_TRUE(tamperCreditInFlight(net, true, 2));
    EXPECT_DEATH(net.checkCreditConservation(),
                 "credit conservation violated on link");
}

TEST(FaultInjection, FlitConservationUnaffectedByCreditLeak)
{
    const Topology topo = Topology::makeMesh(4, 4);
    Network net(faultParams(topo), topo);
    NetworkTestAccess::leakCredit(net, 5, meshEast, 0);
    // The leak starves throughput but loses no flits: the flit law must
    // still hold while the credit law is violated.
    net.checkFlitConservation();
}

} // namespace
} // namespace dr

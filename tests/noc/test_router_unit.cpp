#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "noc/router.hpp"

namespace dr
{
namespace
{

/**
 * A mock environment exposing one router in isolation: port 0 ejects to
 * node 0, ports 1..3 are links. It carries out the router's recorded
 * grants the way the Network does — deliveries, credit returns and
 * ejection reservations — and records them.
 */
class MockEnv : public RouterEnv
{
  public:
    struct Delivery
    {
        int port;
        Flit flit;
        Cycle when;
    };

    int
    routeOutput(int, const Flit &flit) const override
    {
        return flit.destPort;  // tests encode the output port directly
    }

    std::uint8_t
    vcMaskForOutput(int, int, const Flit &) const override
    {
        return 0xff;
    }

    /** Record the grants of the router's tick at `now`. */
    void
    take(const Router &router, Cycle now)
    {
        for (const Router::Grant &g : router.grants()) {
            if (g.outPort == 0)
                --ejFree;
            (g.outPort == 0 ? nodeDeliveries : linkDeliveries)
                .push_back({g.outPort, g.flit, router.flitDue(now)});
            creditReturns.push_back({g.inPort, g.inVc, now + 1});
        }
    }

    struct CreditReturn
    {
        int port;
        int vc;
        Cycle when;
    };

    std::vector<Delivery> linkDeliveries;
    std::vector<Delivery> nodeDeliveries;
    std::vector<CreditReturn> creditReturns;
    int ejFree = 100;
};

class RouterUnit : public ::testing::Test
{
  protected:
    RouterUnit()
    {
        // 4 ports: 0 = node, 1..3 = links. 2 VCs, 4-flit buffers,
        // 4-stage pipeline.
        const std::vector<std::uint8_t> isLink = {0, 1, 1, 1};
        router = std::make_unique<Router>(
            7, 4, 2, 4, 4, env, isLink,
            std::vector<const int *>{&env.ejFree, nullptr, nullptr,
                                     nullptr});
    }

    /**
     * Swap in a 33-port router (port 0 = node, 1..32 = links) with 2
     * VCs: 66 input-VC keys, so port 32's keys 64 and 65 sit in the
     * second 64-bit word of the allocators' key sets.
     */
    void
    useTwoWordRouter()
    {
        std::vector<std::uint8_t> isLink(33, 1);
        std::vector<const int *> ejFree(33, nullptr);
        isLink[0] = 0;
        ejFree[0] = &env.ejFree;
        router = std::make_unique<Router>(7, 33, 2, 4, 4, env, isLink,
                                          std::move(ejFree));
    }

    /** One router cycle, its grants carried out by the mock. */
    void
    tick(Cycle now)
    {
        router->tick(now);
        env.take(*router, now);
    }

    /** A flit of packet `pkt` (the router never reads the slot, so the
     *  tests use it as the packet's identity). */
    Flit
    makeFlit(PacketHandle pkt, int seq, int packetLen, int outPort,
             TrafficClass cls = TrafficClass::Gpu, int vc = 0)
    {
        Flit f;
        f.slot = pkt;
        f.head = seq == 0;
        f.tail = seq == packetLen - 1;
        f.vc = static_cast<std::uint8_t>(vc);
        f.destPort = static_cast<std::int16_t>(outPort);
        f.destRouter = 99;  // not this router; routeOutput uses destPort
        f.cls = cls;
        return f;
    }

    MockEnv env;
    std::unique_ptr<Router> router;
    std::size_t creditsReturned = 0;
};

TEST_F(RouterUnit, ForwardsSingleFlitAfterPipeline)
{
    router->applyFlit(1, makeFlit(1, 0, 1, /*outPort=*/2));
    tick(0);
    ASSERT_EQ(env.linkDeliveries.size(), 1u);
    EXPECT_EQ(env.linkDeliveries[0].port, 2);
    // 4-stage router: SA at cycle 0 delivers at 0 + (4-1) + 1 = 4.
    EXPECT_EQ(env.linkDeliveries[0].when, 4u);
}

TEST_F(RouterUnit, ReturnsCreditToFeeder)
{
    router->applyFlit(1, makeFlit(1, 0, 1, 2));
    tick(0);
    ASSERT_EQ(env.creditReturns.size(), 1u);
    EXPECT_EQ(env.creditReturns[0].port, 1);
    EXPECT_EQ(env.creditReturns[0].vc, 0);
    EXPECT_EQ(env.creditReturns[0].when, 1u);
}

TEST_F(RouterUnit, OneFlitPerOutputPerCycle)
{
    // Two packets from different inputs to the same output: one flit
    // per cycle crosses.
    router->applyFlit(1, makeFlit(1, 0, 1, 2));
    router->applyFlit(3, makeFlit(2, 0, 1, 2));
    tick(0);
    EXPECT_EQ(env.linkDeliveries.size(), 1u);
    tick(1);
    EXPECT_EQ(env.linkDeliveries.size(), 2u);
}

TEST_F(RouterUnit, DistinctOutputsCrossInParallel)
{
    router->applyFlit(1, makeFlit(1, 0, 1, 2));
    router->applyFlit(3, makeFlit(2, 0, 1, 1));
    tick(0);
    EXPECT_EQ(env.linkDeliveries.size(), 2u);
}

TEST_F(RouterUnit, CpuFlitBeatsGpuFlit)
{
    // GPU on VC0 of port 1, CPU on VC0 of port 3, both to output 2.
    router->applyFlit(1, makeFlit(1, 0, 1, 2, TrafficClass::Gpu));
    router->applyFlit(3, makeFlit(2, 0, 1, 2, TrafficClass::Cpu));
    tick(0);
    ASSERT_EQ(env.linkDeliveries.size(), 1u);
    EXPECT_EQ(env.linkDeliveries[0].flit.cls, TrafficClass::Cpu);
}

TEST_F(RouterUnit, WormholeKeepsPacketOnOneOutputVc)
{
    for (int seq = 0; seq < 3; ++seq)
        router->applyFlit(1, makeFlit(1, seq, 3, 2));
    for (Cycle c = 0; c < 5; ++c)
        tick(c);
    ASSERT_EQ(env.linkDeliveries.size(), 3u);
    const int vc = env.linkDeliveries[0].flit.vc;
    for (const auto &d : env.linkDeliveries) {
        EXPECT_EQ(d.flit.vc, vc);
        EXPECT_EQ(d.port, 2);
    }
    // In order.
    EXPECT_TRUE(env.linkDeliveries[0].flit.head);
    EXPECT_TRUE(env.linkDeliveries[2].flit.tail);
}

TEST_F(RouterUnit, CreditsLimitInFlightFlits)
{
    // Downstream buffer depth is 4; with no credits returned, at most
    // 4 flits of a long packet may leave. Feed the second half only
    // after the input buffer drains — a real upstream holds just 4
    // credits, and DR_CHECKED builds assert that law.
    for (int seq = 0; seq < 4; ++seq)
        router->applyFlit(1, makeFlit(1, seq, 8, 2));
    for (Cycle c = 0; c < 10; ++c)
        tick(c);
    for (int seq = 4; seq < 8; ++seq)
        router->applyFlit(1, makeFlit(1, seq, 8, 2));
    for (Cycle c = 10; c < 20; ++c)
        tick(c);
    EXPECT_EQ(env.linkDeliveries.size(), 4u);
    // Returning credits releases the rest.
    for (int i = 0; i < 4; ++i)
        router->applyCredit(2, 0);
    for (Cycle c = 21; c < 40; ++c)
        tick(c);
    EXPECT_EQ(env.linkDeliveries.size(), 8u);
}

TEST_F(RouterUnit, EjectionRespectsNodeBufferSpace)
{
    env.ejFree = 2;
    for (int seq = 0; seq < 4; ++seq)
        router->applyFlit(1, makeFlit(1, seq, 4, /*outPort=*/0));
    for (Cycle c = 0; c < 10; ++c)
        tick(c);
    EXPECT_EQ(env.nodeDeliveries.size(), 2u);
    EXPECT_EQ(env.ejFree, 0);
    // Growing ejection space must wake the stalled router, as
    // Network::popMessage does (the quiescent fast-path contract).
    env.ejFree = 10;
    router->wakeEjectSpace();
    for (Cycle c = 10; c < 20; ++c)
        tick(c);
    EXPECT_EQ(env.nodeDeliveries.size(), 4u);
}

TEST_F(RouterUnit, VcOwnershipBlocksSecondPacketUntilTail)
{
    // Long packet A occupies out VC0 of port 2; packet B wants the same
    // output. With 2 VCs, B takes VC1 and interleaves; a third packet C
    // must wait for a tail to free a VC.
    for (int seq = 0; seq < 4; ++seq)
        router->applyFlit(1, makeFlit(1, seq, 4, 2, TrafficClass::Gpu, 0));
    for (int seq = 0; seq < 4; ++seq)
        router->applyFlit(3, makeFlit(2, seq, 4, 2, TrafficClass::Gpu, 0));
    router->applyFlit(1, makeFlit(3, 0, 1, 2, TrafficClass::Gpu, 1));
    // Give ample credits back as flits drain.
    for (Cycle c = 0; c < 30; ++c) {
        tick(c);
        while (!env.linkDeliveries.empty() &&
               env.linkDeliveries.size() > creditsReturned) {
            router->applyCredit(
                2, env.linkDeliveries[creditsReturned].flit.vc);
            ++creditsReturned;
        }
    }
    EXPECT_EQ(env.linkDeliveries.size(), 9u);
    // Packet 3's flit is delivered last or near-last: its VC was owned.
    bool sawPkt3 = false;
    for (const auto &d : env.linkDeliveries)
        sawPkt3 |= d.flit.slot == 3;
    EXPECT_TRUE(sawPkt3);
}

TEST_F(RouterUnit, IdleFastPathDeliversNothing)
{
    for (Cycle c = 0; c < 100; ++c)
        tick(c);
    EXPECT_TRUE(env.linkDeliveries.empty());
    EXPECT_TRUE(env.nodeDeliveries.empty());
    EXPECT_EQ(router->bufferedFlits(), 0);
}

TEST_F(RouterUnit, StatsCountTraversalsAndBufferWrites)
{
    router->applyFlit(1, makeFlit(1, 0, 1, 2));
    tick(0);
    EXPECT_EQ(router->stats().bufferWrites, 1u);
    EXPECT_EQ(router->stats().switchTraversals, 1u);
    ASSERT_FALSE(router->stats().portFlitsSent.empty());
    EXPECT_EQ(router->stats().portFlitsSent[2], 1u);
    router->resetStats();
    EXPECT_EQ(router->stats().switchTraversals, 0u);
}

TEST_F(RouterUnit, FreeCreditsReflectConsumption)
{
    EXPECT_EQ(router->freeCredits(2), 8);  // 2 VCs x 4 flits
    router->applyFlit(1, makeFlit(1, 0, 1, 2));
    tick(0);
    EXPECT_EQ(router->freeCredits(2), 7);
    router->applyCredit(2, 0);
    tick(1);
    EXPECT_EQ(router->freeCredits(2), 8);
}

TEST_F(RouterUnit, KeyPastFirstWordRoutesAllocatesAndCrosses)
{
    useTwoWordRouter();
    // Port 32, VC 1: key 65, bit 1 of word 1.
    router->applyFlit(32, makeFlit(1, 0, 1, 5, TrafficClass::Gpu, 1));
    tick(0);
    ASSERT_EQ(env.linkDeliveries.size(), 1u);
    EXPECT_EQ(env.linkDeliveries[0].port, 5);
    EXPECT_EQ(env.linkDeliveries[0].when, 4u);
    ASSERT_EQ(env.creditReturns.size(), 1u);
    EXPECT_EQ(env.creditReturns[0].port, 32);
    EXPECT_EQ(env.creditReturns[0].vc, 1);
    EXPECT_EQ(router->bufferedFlits(), 0);
}

TEST_F(RouterUnit, KeysInBothWordsAlternateGrantsByRotation)
{
    useTwoWordRouter();
    // Key 2 (port 1) and key 64 (port 32) each send a 4-flit packet to
    // output 5. Each holds one of its two output VCs, and the rotation
    // pointer hands the output back and forth across the word boundary.
    for (int seq = 0; seq < 4; ++seq) {
        router->applyFlit(1, makeFlit(1, seq, 4, 5));
        router->applyFlit(32, makeFlit(2, seq, 4, 5));
    }
    for (Cycle c = 0; c < 8; ++c)
        tick(c);
    ASSERT_EQ(env.linkDeliveries.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(env.linkDeliveries[i].flit.slot, i % 2 ? 2 : 1)
            << "grant " << i;
}

TEST_F(RouterUnit, CpuInSecondWordBeatsGpuInFirstWord)
{
    useTwoWordRouter();
    // GPU at key 2 would win on rotation distance alone; the CPU head
    // at key 64 must still take the output first.
    router->applyFlit(1, makeFlit(1, 0, 1, 5, TrafficClass::Gpu));
    router->applyFlit(32, makeFlit(2, 0, 1, 5, TrafficClass::Cpu));
    tick(0);
    ASSERT_EQ(env.linkDeliveries.size(), 1u);
    EXPECT_EQ(env.linkDeliveries[0].flit.cls, TrafficClass::Cpu);
    tick(1);
    ASSERT_EQ(env.linkDeliveries.size(), 2u);
    EXPECT_EQ(env.linkDeliveries[1].flit.cls, TrafficClass::Gpu);
}

} // namespace
} // namespace dr

#include <gtest/gtest.h>

#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace dr
{
namespace
{

/** Congestion stub reporting fixed per-port credit counts. */
class FixedCongestion : public CongestionProbe
{
  public:
    explicit FixedCongestion(std::vector<int> credits)
        : credits_(std::move(credits))
    {}

    int
    freeCredits(int, int port) const override
    {
        return credits_.at(port);
    }

  private:
    std::vector<int> credits_;
};

Flit
headFor(int destRouter, DimOrder order)
{
    Flit f;
    f.head = true;
    f.destRouter = static_cast<std::int16_t>(destRouter);
    f.destPort = meshLocal;
    f.order = order;
    return f;
}

TEST(RoutingXY, MovesXThenY)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DimOrderXY, t, 2);
    // From router 0 (0,0) to router 15 (3,3): go east first.
    EXPECT_EQ(r.outputPort(0, headFor(15, DimOrder::XY)), meshEast);
    // From router 3 (3,0) to 15 (3,3): aligned in X, go south.
    EXPECT_EQ(r.outputPort(3, headFor(15, DimOrder::XY)), meshSouth);
}

TEST(RoutingYX, MovesYThenX)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DimOrderYX, t, 2);
    EXPECT_EQ(r.outputPort(0, headFor(15, DimOrder::YX)), meshSouth);
    EXPECT_EQ(r.outputPort(12, headFor(15, DimOrder::YX)), meshEast);
}

TEST(Routing, EjectsAtDestination)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DimOrderXY, t, 2);
    EXPECT_EQ(r.outputPort(15, headFor(15, DimOrder::XY)), meshLocal);
}

TEST(Routing, WestAndNorthDirections)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DimOrderXY, t, 2);
    EXPECT_EQ(r.outputPort(15, headFor(0, DimOrder::XY)), meshWest);
    EXPECT_EQ(r.outputPort(12, headFor(0, DimOrder::XY)), meshNorth);
}

TEST(Routing, FullPathTerminates)
{
    const Topology t = Topology::makeMesh(8, 8);
    RoutingPolicy r(RoutingKind::DimOrderXY, t, 2);
    for (int src = 0; src < 64; src += 7) {
        for (int dst = 0; dst < 64; dst += 5) {
            int cur = src;
            int hops = 0;
            while (cur != dst) {
                const int port = r.outputPort(cur, headFor(dst, DimOrder::XY));
                ASSERT_NE(port, meshLocal);
                cur = t.port(cur, port).peerRouter;
                ASSERT_LE(++hops, 14);
            }
        }
    }
}

TEST(Routing, DeterministicKindsIgnoreCongestion)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy xy(RoutingKind::DimOrderXY, t, 2);
    RoutingPolicy yx(RoutingKind::DimOrderYX, t, 2);
    FixedCongestion net({0, 0, 0, 0, 0});
    Rng rng(1);
    EXPECT_EQ(xy.chooseOrder(0, 15, net, rng), DimOrder::XY);
    EXPECT_EQ(yx.chooseOrder(0, 15, net, rng), DimOrder::YX);
}

TEST(Routing, DeterministicMaskAllowsAllVcs)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DimOrderXY, t, 2);
    EXPECT_EQ(r.packetMask(DimOrder::XY), 0x3);
    EXPECT_EQ(r.packetMask(DimOrder::YX), 0x3);
    EXPECT_FALSE(r.adaptive());
}

TEST(RoutingDyXY, PrefersLessCongestedDimension)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DyXY, t, 2);
    Rng rng(1);
    // Router 0 -> 15: east port is meshEast, south is meshSouth.
    FixedCongestion eastFree({0, 8, 0, 0, 1});
    EXPECT_EQ(r.chooseOrder(0, 15, eastFree, rng), DimOrder::XY);
    FixedCongestion southFree({0, 1, 0, 0, 8});
    EXPECT_EQ(r.chooseOrder(0, 15, southFree, rng), DimOrder::YX);
}

TEST(RoutingDyXY, AdaptiveMaskSplitsVcs)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DyXY, t, 2);
    EXPECT_TRUE(r.adaptive());
    EXPECT_EQ(r.packetMask(DimOrder::XY), 0x1);
    EXPECT_EQ(r.packetMask(DimOrder::YX), 0x2);
}

TEST(RoutingDyXY, FourVcMaskSplitsInHalves)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DyXY, t, 4);
    EXPECT_EQ(r.packetMask(DimOrder::XY), 0x3);
    EXPECT_EQ(r.packetMask(DimOrder::YX), 0xc);
}

TEST(RoutingFootprint, SticksToXYUnlessBlocked)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::Footprint, t, 2);
    Rng rng(1);
    FixedCongestion open({0, 1, 0, 0, 0});
    EXPECT_EQ(r.chooseOrder(0, 15, open, rng), DimOrder::XY);
    FixedCongestion blocked({0, 0, 0, 0, 5});
    EXPECT_EQ(r.chooseOrder(0, 15, blocked, rng), DimOrder::YX);
}

TEST(RoutingHare, LearnsFromDeliveredLatency)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::Hare, t, 2);
    FixedCongestion net({0, 0, 0, 0, 0});
    Rng rng(1);
    // Teach it that YX is much faster for 0 -> 15.
    for (int i = 0; i < 50; ++i) {
        r.onDelivered(0, 15, DimOrder::XY, 500);
        r.onDelivered(0, 15, DimOrder::YX, 10);
    }
    int yx = 0;
    for (int i = 0; i < 100; ++i)
        yx += r.chooseOrder(0, 15, net, rng) == DimOrder::YX;
    // Exploration keeps a small random component.
    EXPECT_GT(yx, 80);
}

TEST(RoutingTable, NonMeshUsesTables)
{
    const Topology t = Topology::makeCrossbar(8);
    RoutingPolicy r(RoutingKind::TableMinimal, t, 2);
    Flit f = headFor(0, DimOrder::XY);
    f.destPort = 5;
    EXPECT_EQ(r.outputPort(0, f), 5);
}

TEST(RoutingDragonfly, VcPhaseEscalation)
{
    const Topology t = Topology::makeDragonfly(64, 4, 4);
    RoutingPolicy r(RoutingKind::TableMinimal, t, 2);
    Flit f = headFor(/*destRouter=*/14, DimOrder::XY);  // group 3
    // Link into a router in the destination group: upper VC half.
    EXPECT_EQ(r.vcMaskForLink(12, f), 0x2);
    // Link into a router outside the destination group: lower half.
    EXPECT_EQ(r.vcMaskForLink(2, f), 0x1);
}

TEST(RoutingDeath, AdaptiveOnNonMeshFails)
{
    const Topology t = Topology::makeCrossbar(8);
    EXPECT_DEATH(
        { RoutingPolicy r(RoutingKind::DyXY, t, 2); (void)r; },
        "table routing");
}

/** 4 VCs: request VN on VCs 0-1, forward VN on VCs 2-3. */
VnetLayout
twoByTwoLayout()
{
    VnetLayout l;
    l.numVcs = 4;
    l.range[static_cast<int>(VirtualNet::Request)] = {0, 2};
    l.range[static_cast<int>(VirtualNet::ForwardedRequest)] = {2, 2};
    l.range[static_cast<int>(VirtualNet::Reply)] = {0, 2};
    l.range[static_cast<int>(VirtualNet::DelegatedReply)] = {2, 2};
    return l;
}

TEST(RoutingVnet, AdaptiveEscapeClassesSplitWithinEachVnRange)
{
    // O1TURN escape classes compose with the VN partition: each order
    // owns half of the *VN's* reserved range, never another VN's VCs.
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DyXY, t, 4, twoByTwoLayout());
    EXPECT_EQ(r.packetMask(DimOrder::XY, VirtualNet::Request), 0x1);
    EXPECT_EQ(r.packetMask(DimOrder::YX, VirtualNet::Request), 0x2);
    EXPECT_EQ(r.packetMask(DimOrder::XY, VirtualNet::ForwardedRequest),
              0x4);
    EXPECT_EQ(r.packetMask(DimOrder::YX, VirtualNet::ForwardedRequest),
              0x8);
}

TEST(RoutingVnet, DeterministicMaskIsTheVnReservation)
{
    const Topology t = Topology::makeMesh(4, 4);
    RoutingPolicy r(RoutingKind::DimOrderXY, t, 4, twoByTwoLayout());
    EXPECT_EQ(r.packetMask(DimOrder::XY, VirtualNet::Request), 0x3);
    EXPECT_EQ(r.packetMask(DimOrder::XY, VirtualNet::ForwardedRequest),
              0xc);
}

TEST(RoutingVnet, DragonflyPhaseEscalationStaysInVnRange)
{
    // Reaching the destination group escalates to the upper half of
    // the flit's own VN range — VCs of other VNs are never borrowed.
    const Topology t = Topology::makeDragonfly(64, 4, 4);
    RoutingPolicy r(RoutingKind::TableMinimal, t, 4, twoByTwoLayout());
    Flit f = headFor(/*destRouter=*/14, DimOrder::XY);  // group 3
    f.vnet = VirtualNet::ForwardedRequest;
    EXPECT_EQ(r.vcMaskForLink(12, f), 0x8);  // in dest group: upper half
    EXPECT_EQ(r.vcMaskForLink(2, f), 0x4);   // elsewhere: lower half
    f.vnet = VirtualNet::Request;
    EXPECT_EQ(r.vcMaskForLink(12, f), 0x2);
    EXPECT_EQ(r.vcMaskForLink(2, f), 0x1);
}

TEST(RoutingVnetDeath, LayoutMustCoverTheNetworkVcs)
{
    const Topology t = Topology::makeMesh(4, 4);
    VnetLayout l = twoByTwoLayout();  // covers 4 VCs
    EXPECT_DEATH(
        {
            RoutingPolicy r(RoutingKind::DimOrderXY, t, 2, l);
            (void)r;
        },
        "layout covers");
}

TEST(RoutingVnetDeath, AdaptiveNeedsTwoVcsPerVnet)
{
    // A 1-VC VN range cannot express the two escape classes; this must
    // be rejected at construction, not deadlock at runtime.
    const Topology t = Topology::makeMesh(4, 4);
    VnetLayout l = twoByTwoLayout();
    l.range[static_cast<int>(VirtualNet::Request)] = {0, 1};
    l.range[static_cast<int>(VirtualNet::ForwardedRequest)] = {1, 3};
    EXPECT_DEATH(
        {
            RoutingPolicy r(RoutingKind::DyXY, t, 4, l);
            (void)r;
        },
        "every virtual network");
}

TEST(RoutingVnetDeath, DragonflyNeedsTwoVcsPerVnet)
{
    const Topology t = Topology::makeDragonfly(64, 4, 4);
    VnetLayout l = twoByTwoLayout();
    l.range[static_cast<int>(VirtualNet::DelegatedReply)] = {3, 1};
    EXPECT_DEATH(
        {
            RoutingPolicy r(RoutingKind::TableMinimal, t, 4, l);
            (void)r;
        },
        "every virtual network");
}

/**
 * Map a chiplet vcMaskForLink mask back to its phase segment. With
 * 3 VCs and no VN layout the three phases own VCs {0}, {1}, {2}.
 */
int
phaseOfMask(std::uint8_t mask)
{
    switch (mask) {
      case 0x1: return 0;
      case 0x2: return 1;
      case 0x4: return 2;
    }
    ADD_FAILURE() << "mask " << int(mask) << " is not a phase segment";
    return -1;
}

TEST(RoutingChiplet, AllPathsTerminateWithMonotonePhases)
{
    // Gateway-restricted 2x2 chiplets of 4x4: every route must reach
    // its destination, and the VC phase class (E/W transit, N/S
    // transit, intra-chiplet XY) must never step backwards — that
    // monotonicity is the deadlock-freedom argument.
    const Topology t = Topology::makeChipletMesh(2, 2, 4, 4, 2);
    RoutingPolicy r(RoutingKind::ChipletHierarchical, t, 3);
    for (int src = 0; src < t.routers(); ++src) {
        for (int dst = 0; dst < t.routers(); ++dst) {
            const Flit f = headFor(dst, DimOrder::XY);
            int cur = src;
            int hops = 0;
            int phase = 0;
            while (cur != dst) {
                const int port = r.outputPort(cur, f);
                ASSERT_NE(port, meshLocal) << src << "->" << dst;
                const PortConn &conn = t.port(cur, port);
                ASSERT_EQ(conn.kind, PortConn::Kind::Link)
                    << src << "->" << dst << " at " << cur;
                const int next = conn.peerRouter;
                const int p = phaseOfMask(r.vcMaskForLink(next, f));
                ASSERT_GE(p, phase)
                    << "phase regressed " << src << "->" << dst;
                phase = p;
                cur = next;
                ASSERT_LE(++hops, 4 * (8 + 8)) << src << "->" << dst;
            }
        }
    }
}

TEST(RoutingChiplet, CrossingDetoursToTheDestinationsGatewayRow)
{
    // Gateway rows of a 4x4 sub-mesh with 2 links per edge are {0, 2};
    // the row is hashed from the destination so all hops agree on it.
    const Topology t = Topology::makeChipletMesh(2, 2, 4, 4, 2);
    RoutingPolicy r(RoutingKind::ChipletHierarchical, t, 3);
    // 0 (0,0) -> 7 (7,0): odd destination hashes to gateway row 2, so
    // phase 0 first walks south inside the chiplet...
    EXPECT_EQ(r.outputPort(0, headFor(7, DimOrder::XY)), meshSouth);
    // ...and crosses east once on the gateway row (router (0,2)).
    EXPECT_EQ(r.outputPort(2 * 8 + 0, headFor(7, DimOrder::XY)), meshEast);
    // An even destination hashes to gateway row 0: cross immediately.
    EXPECT_EQ(r.outputPort(0, headFor(6, DimOrder::XY)), meshEast);
}

TEST(RoutingChiplet, PhaseSegmentsPartitionTheVcRange)
{
    // 6 uniform VCs split into thirds: phase 0 owns {0,1}, phase 1
    // owns {2,3}, phase 2 the remainder {4,5} — disjoint and covering.
    const Topology t = Topology::makeChipletMesh(2, 2, 4, 4, 2);
    RoutingPolicy r(RoutingKind::ChipletHierarchical, t, 6);
    const Flit f = headFor(63, DimOrder::XY);  // chiplet 3 at (7,7)
    EXPECT_EQ(r.vcMaskForLink(0, f), 0x03);    // chiplet 0: E/W transit
    EXPECT_EQ(r.vcMaskForLink(4, f), 0x0c);    // chiplet 1: N/S transit
    EXPECT_EQ(r.vcMaskForLink(4 * 8 + 4, f), 0x30);  // chiplet 3: XY
}

TEST(RoutingChiplet, FullGatewayMeshAcceptsPlainXY)
{
    // With every boundary channel present the chiplet mesh is
    // structurally a plain mesh, so dimension-order routing is legal.
    const Topology t = Topology::makeChipletMesh(2, 2, 2, 2, 0);
    RoutingPolicy r(RoutingKind::DimOrderXY, t, 2);
    EXPECT_EQ(r.outputPort(0, headFor(15, DimOrder::XY)), meshEast);
}

TEST(RoutingChipletDeath, ConstructionGuards)
{
    const Topology mesh = Topology::makeMesh(4, 4);
    EXPECT_DEATH(
        {
            RoutingPolicy r(RoutingKind::ChipletHierarchical, mesh, 3);
            (void)r;
        },
        "chiplet-mesh topology");

    const Topology restricted = Topology::makeChipletMesh(2, 2, 4, 4, 1);
    // A gateway-restricted mesh cannot fall back to XY: non-gateway
    // boundary rows have no crossing channel.
    EXPECT_DEATH(
        {
            RoutingPolicy r(RoutingKind::DimOrderXY, restricted, 3);
            (void)r;
        },
        "gateway-restricted");
    // Three monotone phase classes need at least 3 VCs per VN range.
    EXPECT_DEATH(
        {
            RoutingPolicy r(RoutingKind::ChipletHierarchical, restricted,
                            2);
            (void)r;
        },
        "at least 3 VCs");
}

} // namespace
} // namespace dr

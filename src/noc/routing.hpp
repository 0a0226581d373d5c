#ifndef DR_NOC_ROUTING_HPP
#define DR_NOC_ROUTING_HPP

/**
 * @file
 * Routing policies. Deterministic dimension-order routing (XY/YX) on the
 * mesh implements CDR [3] when the request and reply networks use
 * different orders. The adaptive schemes (DyXY [45], Footprint [22],
 * HARE [37]) are modelled O1TURN-style: the dimension order of a packet
 * is chosen at injection from congestion/history state and each order
 * owns a disjoint VC class, which keeps wormhole routing deadlock-free.
 * Non-mesh topologies use deterministic minimal table routing; the
 * dragonfly additionally escalates the VC class after the global hop.
 * Chiplet meshes route hierarchically (ChipletHierarchical): east/west
 * chiplet transit along a destination-hashed gateway row, north/south
 * transit along a gateway column, then intra-chiplet XY — three
 * monotone phases, each owning a third of the packet's VN VC range.
 */

#include <cstdint>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"
#include "noc/topology.hpp"

namespace dr
{

/** Congestion visibility the adaptive policies get at injection time. */
class CongestionProbe
{
  public:
    virtual ~CongestionProbe() = default;
    /** Free downstream credits summed over the VCs of an output port. */
    virtual int freeCredits(int router, int port) const = 0;
};

/**
 * Per-network routing policy. Stateless for deterministic kinds; the
 * adaptive kinds carry congestion/history state.
 */
class RoutingPolicy
{
  public:
    /**
     * `layout` partitions the VCs among virtual networks; an empty
     * layout means every VN may use every VC (the legacy behaviour).
     * VC-class escapes (O1TURN order classes, dragonfly phase
     * escalation) are computed *within* the packet's VN range so VN
     * isolation and escape deadlock-freedom compose — which also means
     * adaptive routing and the dragonfly need every VN range to hold
     * at least two VCs (fatal at construction otherwise).
     */
    RoutingPolicy(RoutingKind kind, const Topology &topo, int numVcs,
                  const VnetLayout &layout = {});

    RoutingKind kind() const { return kind_; }
    bool adaptive() const;
    const VnetLayout &layout() const { return layout_; }

    /**
     * Choose the dimension order for a packet at injection. Deterministic
     * kinds return their fixed order; adaptive kinds consult congestion
     * or history. Only DyXY ties and HARE draw from `rng`, the source
     * node's own stream (Network::Ni::routeRng).
     */
    DimOrder chooseOrder(int srcRouter, int destRouter,
                         const CongestionProbe &net, Rng &rng) const;

    /**
     * VC mask a packet of the given order and virtual network may use:
     * the VN's reserved range, halved per dimension order under
     * adaptive (O1TURN) routing.
     */
    std::uint8_t packetMask(DimOrder order,
                            VirtualNet vn = VirtualNet::Request) const;

    /** Output port at `router` for the flit's next hop. */
    int outputPort(int router, const Flit &flit) const;

    /**
     * Additional VC-mask constraint for the link into `downstreamRouter`
     * (dragonfly phase escalation; all-ones elsewhere).
     */
    std::uint8_t vcMaskForLink(int downstreamRouter,
                               const Flit &flit) const;

    /** Delivery feedback for history-based adaptivity (HARE). */
    void onDelivered(int srcRouter, int destRouter, DimOrder order,
                     Cycle latency);

  private:
    int meshPortToward(int router, int destRouter, DimOrder order) const;
    int firstHopPort(int router, int destRouter, DimOrder order) const;
    /** Hierarchical routing phase of `router` on the way to `destRouter`:
     *  0 = east/west chiplet transit, 1 = north/south transit, 2 =
     *  intra-chiplet XY. Monotone non-decreasing along any route. */
    int chipletPhase(int router, int destRouter) const;
    int chipletPortToward(int router, int destRouter) const;

    RoutingKind kind_;
    const Topology &topo_;
    int numVcs_;
    VnetLayout layout_;

    /** HARE history: EWMA latency per (src, dest) per order. */
    struct History
    {
        double lat[2] = {0.0, 0.0};
        bool seen[2] = {false, false};
    };
    // drlint-allow(unordered-container): lookup by (src,dst) key
    // only; route choice reads one entry, never iterates.
    std::unordered_map<std::uint32_t, History> history_;
};

} // namespace dr

#endif // DR_NOC_ROUTING_HPP

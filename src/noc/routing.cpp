#include "noc/routing.hpp"

#include "common/log.hpp"

namespace dr
{

RoutingPolicy::RoutingPolicy(RoutingKind kind, const Topology &topo,
                             int numVcs, const VnetLayout &layout)
    : kind_(kind), topo_(topo), numVcs_(numVcs),
      layout_(layout.empty() ? VnetLayout::uniform(numVcs) : layout)
{
    if (kind_ == RoutingKind::ChipletHierarchical) {
        if (topo_.kind() != TopologyKind::ChipletMesh)
            fatal("chiplet routing requires a chiplet-mesh topology");
    } else if (topo_.kind() == TopologyKind::ChipletMesh) {
        // With every boundary channel present the chiplet mesh is
        // structurally a plain mesh, so any mesh routing applies.
        // Restricted gateways leave grid holes that dimension-order /
        // BFS-table wormhole routing would deadlock on.
        if (topo_.chipletLinksPerEdge() > 0)
            fatal("a gateway-restricted chiplet mesh requires chiplet "
                  "routing");
    } else if (topo_.kind() != TopologyKind::Mesh &&
               kind_ != RoutingKind::TableMinimal) {
        fatal("only table routing is supported on non-mesh topologies");
    }
    if (layout_.numVcs != numVcs_)
        fatal("virtual-network layout covers ", layout_.numVcs,
              " VCs but the network has ", numVcs_);
    // Escape classes are carved out of each VN's reserved range, so
    // VN ranges of one VC cannot express them.
    if (kind_ == RoutingKind::ChipletHierarchical) {
        // Three monotone routing phases (E/W transit, N/S transit,
        // intra-chiplet XY), each owning a disjoint VC segment of the
        // packet's VN range — the escalation that keeps hierarchical
        // wormhole routing deadlock-free.
        for (int vn = 0; vn < numVnets; ++vn) {
            if (layout_.range[vn].count < 3) {
                fatal("chiplet routing needs at least 3 VCs in every "
                      "virtual network (one per routing phase); the ",
                      vnetName(static_cast<VirtualNet>(vn)), " VN has ",
                      static_cast<int>(layout_.range[vn].count));
            }
        }
    }
    const bool needsSplit =
        adaptive() || topo_.kind() == TopologyKind::Dragonfly;
    if (needsSplit) {
        if (numVcs_ < 2)
            fatal("adaptive routing needs at least 2 VCs (one per order)");
        for (int vn = 0; vn < numVnets; ++vn) {
            if (layout_.range[vn].count < 2) {
                fatal(adaptive() ? "adaptive routing" : "dragonfly phase "
                                                        "escalation",
                      " needs at least 2 VCs in every virtual network; "
                      "the ",
                      vnetName(static_cast<VirtualNet>(vn)),
                      " VN has ",
                      static_cast<int>(layout_.range[vn].count));
            }
        }
    }
}

bool
RoutingPolicy::adaptive() const
{
    return kind_ == RoutingKind::DyXY || kind_ == RoutingKind::Footprint ||
           kind_ == RoutingKind::Hare;
}

int
RoutingPolicy::firstHopPort(int router, int destRouter, DimOrder order) const
{
    if (router == destRouter)
        return -1;
    return meshPortToward(router, destRouter, order);
}

DimOrder
RoutingPolicy::chooseOrder(int srcRouter, int destRouter,
                           const CongestionProbe &net, Rng &rng) const
{
    switch (kind_) {
      case RoutingKind::DimOrderXY:
      case RoutingKind::TableMinimal:
      case RoutingKind::ChipletHierarchical:
        return DimOrder::XY;
      case RoutingKind::DimOrderYX:
        return DimOrder::YX;
      case RoutingKind::DyXY: {
        // Proximity congestion awareness: start in the dimension whose
        // first hop has more free buffering.
        const int px = firstHopPort(srcRouter, destRouter, DimOrder::XY);
        const int py = firstHopPort(srcRouter, destRouter, DimOrder::YX);
        if (px < 0 || py < 0 || px == py)
            return DimOrder::XY;
        const int cx = net.freeCredits(srcRouter, px);
        const int cy = net.freeCredits(srcRouter, py);
        if (cx == cy)
            return rng.chance(0.5) ? DimOrder::XY : DimOrder::YX;
        return cx > cy ? DimOrder::XY : DimOrder::YX;
      }
      case RoutingKind::Footprint: {
        // Regulated adaptivity: keep the deterministic footprint (XY)
        // unless its first hop is fully congested.
        const int px = firstHopPort(srcRouter, destRouter, DimOrder::XY);
        if (px < 0)
            return DimOrder::XY;
        return net.freeCredits(srcRouter, px) > 0 ? DimOrder::XY
                                                  : DimOrder::YX;
      }
      case RoutingKind::Hare: {
        // History-aware: EWMA of delivered latencies per order, with a
        // small exploration probability.
        const std::uint32_t key =
            static_cast<std::uint32_t>(srcRouter) << 16 |
            static_cast<std::uint32_t>(destRouter);
        const auto it = history_.find(key);
        if (it == history_.end() || rng.chance(1.0 / 16.0))
            return rng.chance(0.5) ? DimOrder::XY : DimOrder::YX;
        const History &h = it->second;
        if (!h.seen[0])
            return DimOrder::XY;
        if (!h.seen[1])
            return DimOrder::YX;
        return h.lat[0] <= h.lat[1] ? DimOrder::XY : DimOrder::YX;
      }
    }
    panic("unreachable routing kind");
}

std::uint8_t
RoutingPolicy::packetMask(DimOrder order, VirtualNet vn) const
{
    const std::uint8_t all = layout_.mask(vn);
    if (!adaptive())
        return all;
    // Each order owns half the VN's reserved VCs; disjoint classes keep
    // the union of XY- and YX-routed wormhole traffic deadlock-free
    // (O1TURN), independently within every virtual network.
    const VcRange &r = layout_.range[static_cast<int>(vn)];
    const int half = r.count / 2;
    const std::uint8_t lower =
        static_cast<std::uint8_t>(((1u << half) - 1u) << r.base);
    return order == DimOrder::XY
               ? lower
               : static_cast<std::uint8_t>(all & ~lower);
}

int
RoutingPolicy::meshPortToward(int router, int destRouter,
                              DimOrder order) const
{
    const int x = topo_.xOf(router);
    const int y = topo_.yOf(router);
    const int dx = topo_.xOf(destRouter);
    const int dy = topo_.yOf(destRouter);
    const bool moveXFirst = order == DimOrder::XY;
    if (moveXFirst) {
        if (x != dx)
            return dx > x ? meshEast : meshWest;
        return dy > y ? meshSouth : meshNorth;
    }
    if (y != dy)
        return dy > y ? meshSouth : meshNorth;
    return dx > x ? meshEast : meshWest;
}

int
RoutingPolicy::chipletPhase(int router, int destRouter) const
{
    const int cx = topo_.xOf(router) / topo_.chipletSubW();
    const int cy = topo_.yOf(router) / topo_.chipletSubH();
    const int dcx = topo_.xOf(destRouter) / topo_.chipletSubW();
    const int dcy = topo_.yOf(destRouter) / topo_.chipletSubH();
    if (cx != dcx)
        return 0;
    if (cy != dcy)
        return 1;
    return 2;
}

int
RoutingPolicy::chipletPortToward(int router, int destRouter) const
{
    // Hierarchical deterministic routing in three monotone phases. The
    // gateway row/column is a pure function of the destination so every
    // hop of a packet agrees on it and consecutive destinations spread
    // over the available interposer links.
    const int subW = topo_.chipletSubW();
    const int subH = topo_.chipletSubH();
    const int x = topo_.xOf(router);
    const int y = topo_.yOf(router);
    const int cx = x / subW;
    const int cy = y / subH;
    const int dcx = topo_.xOf(destRouter) / subW;
    const int dcy = topo_.yOf(destRouter) / subH;
    if (cx != dcx) {
        // Phase 0: reach the gateway row (vertical moves stay inside
        // the chiplet), then run east/west; the crossing keeps the
        // global y, so the next chiplet is already on its gateway row.
        const auto &rows = topo_.gatewayRows();
        const int g = rows[static_cast<std::size_t>(destRouter) %
                           rows.size()];
        const int localY = y % subH;
        if (localY != g)
            return g > localY ? meshSouth : meshNorth;
        return dcx > cx ? meshEast : meshWest;
    }
    if (cy != dcy) {
        // Phase 1: reach the gateway column, then run north/south.
        const auto &cols = topo_.gatewayCols();
        const int g = cols[static_cast<std::size_t>(destRouter) %
                           cols.size()];
        const int localX = x % subW;
        if (localX != g)
            return g > localX ? meshEast : meshWest;
        return dcy > cy ? meshSouth : meshNorth;
    }
    // Phase 2: plain XY inside the destination chiplet.
    return meshPortToward(router, destRouter, DimOrder::XY);
}

int
RoutingPolicy::outputPort(int router, const Flit &flit) const
{
    if (router == flit.destRouter)
        return flit.destPort;
    if (kind_ == RoutingKind::ChipletHierarchical)
        return chipletPortToward(router, flit.destRouter);
    const bool grid = topo_.kind() == TopologyKind::Mesh ||
                      topo_.kind() == TopologyKind::ChipletMesh;
    if (grid && kind_ != RoutingKind::TableMinimal)
        return meshPortToward(router, flit.destRouter, flit.order);
    return topo_.nextPortTable(router, flit.destRouter);
}

std::uint8_t
RoutingPolicy::vcMaskForLink(int downstreamRouter, const Flit &flit) const
{
    if (kind_ == RoutingKind::ChipletHierarchical) {
        // Phase escalation: each of the three routing phases owns a
        // disjoint segment of the packet's VN range, and the phase at
        // the downstream router is monotone non-decreasing along any
        // path (E/W transit, then N/S transit, then intra-chiplet XY).
        // Per-phase acyclic turn sets + monotone VC classes keep the
        // hierarchical routes deadlock-free without borrowing another
        // VN's VCs.
        const VcRange &r = layout_.range[static_cast<int>(flit.vnet)];
        const int third = r.count / 3;
        const int phase = chipletPhase(downstreamRouter, flit.destRouter);
        const int base = r.base + phase * third;
        const int cnt = phase == 2 ? r.count - 2 * third : third;
        return static_cast<std::uint8_t>(((1u << cnt) - 1u) << base);
    }
    if (topo_.kind() != TopologyKind::Dragonfly)
        return 0xff;
    // VC phase escalation: traffic that has reached the destination
    // group moves to the upper half *of its virtual network's range*,
    // breaking the local->global->local channel dependence cycle
    // without ever borrowing another VN's VCs.
    const VcRange &r = layout_.range[static_cast<int>(flit.vnet)];
    const int half = r.count / 2;
    const std::uint8_t all = layout_.mask(flit.vnet);
    const std::uint8_t lower =
        static_cast<std::uint8_t>(((1u << half) - 1u) << r.base);
    const bool inDestGroup =
        topo_.groupOf(downstreamRouter) == topo_.groupOf(flit.destRouter);
    return inDestGroup ? static_cast<std::uint8_t>(all & ~lower) : lower;
}

void
RoutingPolicy::onDelivered(int srcRouter, int destRouter, DimOrder order,
                           Cycle latency)
{
    if (kind_ != RoutingKind::Hare)
        return;
    const std::uint32_t key = static_cast<std::uint32_t>(srcRouter) << 16 |
                              static_cast<std::uint32_t>(destRouter);
    History &h = history_[key];
    const int idx = order == DimOrder::XY ? 0 : 1;
    constexpr double alpha = 0.125;
    if (!h.seen[idx]) {
        h.lat[idx] = static_cast<double>(latency);
        h.seen[idx] = true;
    } else {
        h.lat[idx] =
            (1.0 - alpha) * h.lat[idx] + alpha * static_cast<double>(latency);
    }
}

} // namespace dr

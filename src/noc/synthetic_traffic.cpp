#include "noc/synthetic_traffic.hpp"

#include "common/log.hpp"

namespace dr
{

const char *
trafficPatternName(TrafficPattern p)
{
    switch (p) {
      case TrafficPattern::UniformRandom: return "uniform";
      case TrafficPattern::Transpose: return "transpose";
      case TrafficPattern::BitComplement: return "bit-complement";
      case TrafficPattern::Hotspot: return "hotspot";
      case TrafficPattern::Neighbor: return "neighbor";
    }
    return "unknown";
}

SyntheticTraffic::SyntheticTraffic(TrafficPattern pattern, int nodes,
                                   int meshWidth,
                                   std::vector<NodeId> hotspots)
    : pattern_(pattern), nodes_(nodes), meshWidth_(meshWidth),
      hotspots_(std::move(hotspots))
{
    if (pattern_ == TrafficPattern::Hotspot && hotspots_.empty())
        fatal("hotspot traffic needs at least one hotspot node");
}

NodeId
SyntheticTraffic::dest(NodeId src, Rng &rng) const
{
    NodeId d = src;
    switch (pattern_) {
      case TrafficPattern::UniformRandom:
        d = static_cast<NodeId>(rng.below(nodes_));
        break;
      case TrafficPattern::Transpose: {
        const int x = src % meshWidth_;
        const int y = src / meshWidth_;
        d = static_cast<NodeId>(x * meshWidth_ + y);
        break;
      }
      case TrafficPattern::BitComplement:
        d = static_cast<NodeId>(nodes_ - 1 - src);
        break;
      case TrafficPattern::Hotspot:
        d = hotspots_[rng.below(hotspots_.size())];
        break;
      case TrafficPattern::Neighbor:
        d = static_cast<NodeId>((src + 1) % nodes_);
        break;
    }
    if (d == src)
        d = static_cast<NodeId>((d + 1) % nodes_);
    return d;
}

SyntheticResult
driveSyntheticLoad(Network &net, TrafficPattern pattern, int meshWidth,
                   double rate, int packetFlits, Cycle cycles,
                   std::uint64_t seed, bool mixVnets)
{
    const int nodes = net.topology().nodes();
    SyntheticTraffic traffic(
        pattern, nodes, meshWidth,
        pattern == TrafficPattern::Hotspot
            ? std::vector<NodeId>{0, static_cast<NodeId>(nodes / 2)}
            : std::vector<NodeId>{});
    Rng rng(seed * 31 + 7);

    std::uint64_t id = 1;
    for (Cycle now = 0; now < cycles; ++now) {
        for (NodeId src = 0; src < nodes; ++src) {
            if (!rng.chance(rate) || !net.canInject(src, packetFlits))
                continue;  // offered load beyond acceptance
            Message m;
            m.type = MsgType::ReadReply;
            m.cls = TrafficClass::Gpu;
            m.src = src;
            m.dst = traffic.dest(src, rng);
            m.id = id++;
            if (!mixVnets) {
                net.inject(m, packetFlits, now);
                continue;
            }
            const auto vn = static_cast<VirtualNet>(rng.next() % numVnets);
            const bool reqSide = vn == VirtualNet::Request ||
                                 vn == VirtualNet::ForwardedRequest;
            if (reqSide)
                m.type = MsgType::ReadReq;
            net.inject(m, reqSide ? 1 : packetFlits, now, vn);
        }
        net.tick(now);
        for (NodeId n = 0; n < nodes; ++n) {
            for (const NetKind kind : {NetKind::Reply, NetKind::Request}) {
                while (net.hasMessage(n, kind))
                    net.popMessage(n, kind);
            }
        }
    }

    const NetworkStats &stats = net.stats();
    return {rate * packetFlits,
            static_cast<double>(stats.flitsDelivered.value()) /
                static_cast<double>(cycles) / nodes,
            stats.packetLatency.mean(), stats.packetsDelivered.value()};
}

SyntheticResult
runSyntheticLoad(TopologyKind topo, int nodes, int meshWidth,
                 int meshHeight, TrafficPattern pattern,
                 double injectionRate, int packetFlits, Cycle cycles,
                 std::uint64_t seed)
{
    const Topology topology =
        Topology::make(topo, nodes, meshWidth, meshHeight);
    NetworkParams params;
    params.routing = topo == TopologyKind::Mesh ? RoutingKind::DimOrderXY
                                                : RoutingKind::TableMinimal;
    params.injBufferFlits.assign(nodes, 36);
    params.seed = seed;
    Network net(params, topology);
    return driveSyntheticLoad(net, pattern, meshWidth, injectionRate,
                              packetFlits, cycles, seed);
}

} // namespace dr

#ifndef DR_NOC_SYNTHETIC_TRAFFIC_HPP
#define DR_NOC_SYNTHETIC_TRAFFIC_HPP

/**
 * @file
 * Synthetic NoC traffic generation in the BookSim / Garnet-standalone
 * tradition: classic destination patterns plus a driver that sweeps
 * injection rates and reports latency/throughput. Used to characterize
 * the network substrate independent of the memory system (and to show
 * that hotspot traffic — the clogging pattern — saturates far earlier
 * than uniform traffic on every topology).
 */

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"

namespace dr
{

/** Classic synthetic destination patterns. */
enum class TrafficPattern : std::uint8_t
{
    UniformRandom,  //!< destination uniform over all other nodes
    Transpose,      //!< (x, y) -> (y, x) on the mesh coordinates
    BitComplement,  //!< destination = ~source (mod nodes)
    Hotspot,        //!< a fixed subset of nodes receives all traffic
    Neighbor,       //!< destination = source + 1 (ring order)
};

const char *trafficPatternName(TrafficPattern p);

/** Destination chooser for one pattern. */
class SyntheticTraffic
{
  public:
    /**
     * @param pattern destination pattern
     * @param nodes endpoint count
     * @param meshWidth width for coordinate-based patterns
     * @param hotspots receivers for TrafficPattern::Hotspot
     */
    SyntheticTraffic(TrafficPattern pattern, int nodes, int meshWidth,
                     std::vector<NodeId> hotspots = {});

    /** Destination for a packet from `src` (never `src` itself). */
    NodeId dest(NodeId src, Rng &rng) const;

    TrafficPattern pattern() const { return pattern_; }

  private:
    TrafficPattern pattern_;
    int nodes_;
    int meshWidth_;
    std::vector<NodeId> hotspots_;
};

/** Result of one synthetic-load measurement. */
struct SyntheticResult
{
    double offeredFlitsPerNode = 0.0;   //!< injection attempt rate
    double acceptedFlitsPerNode = 0.0;  //!< delivered throughput
    double avgLatency = 0.0;            //!< packet latency (cycles)
    std::uint64_t packetsDelivered = 0;
};

/**
 * Drive `net` with the pattern for `cycles` cycles. Each cycle every
 * node in ascending order draws `rng.chance(rate)` and, if there is room
 * for `packetFlits` flits, injects a GPU-class message: it draws the
 * destination, then (with `mixVnets`) the VN. The network then ticks
 * and both queues of every node are drained. The stream is
 * `Rng(seed * 31 + 7)`; hotspot traffic goes to nodes 0 and nodes/2.
 *
 * @param packetFlits flits per packet (e.g., 5 for 64 B replies)
 * @param mixVnets spread packets uniformly over the four VNs:
 *        request-side VNs carry 1-flit ReadReqs, the others ReadReplies.
 *        Otherwise every packet is a ReadReply on its default VN.
 */
SyntheticResult driveSyntheticLoad(Network &net, TrafficPattern pattern,
                                   int meshWidth, double rate,
                                   int packetFlits, Cycle cycles,
                                   std::uint64_t seed,
                                   bool mixVnets = false);

/**
 * driveSyntheticLoad() on a fresh network of the given topology: XY
 * routing on a mesh, table-minimal routing elsewhere, 36-flit injection
 * buffers, `seed` for both the network and the traffic.
 */
SyntheticResult runSyntheticLoad(TopologyKind topo, int nodes,
                                 int meshWidth, int meshHeight,
                                 TrafficPattern pattern,
                                 double injectionRate, int packetFlits,
                                 Cycle cycles, std::uint64_t seed = 1);

} // namespace dr

#endif // DR_NOC_SYNTHETIC_TRAFFIC_HPP

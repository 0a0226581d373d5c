/**
 * @file
 * Standalone NoC characterization (BookSim/Garnet-standalone style):
 * latency-throughput curves for each topology under the classic
 * synthetic patterns. The hotspot pattern is the abstract form of the
 * paper's clogging problem: all nodes target a few receivers, and the
 * receivers' ejection links saturate long before the bisection does —
 * which is why no topology change fixes clogging (Figure 5).
 */

#include "figures.hpp"

using namespace dr;

void
synthetic_noc(Sweep &s)
{
    const Cycle cycles = benchCycles(8000);
    const double rates[] = {0.01, 0.03, 0.06, 0.10};

    for (const TopologyKind topo :
         {TopologyKind::Mesh, TopologyKind::FlattenedButterfly,
          TopologyKind::Dragonfly, TopologyKind::Crossbar}) {
        s.print("=== %s ===\n", topologyName(topo));
        s.print("%-14s", "pattern");
        for (const double r : rates)
            s.print("   @%.2f lat/thru", r);
        s.print("\n");
        for (const TrafficPattern pattern :
             {TrafficPattern::UniformRandom, TrafficPattern::Transpose,
              TrafficPattern::BitComplement, TrafficPattern::Hotspot}) {
            s.print("%-14s", trafficPatternName(pattern));
            for (const double rate : rates) {
                const SyntheticResult res = s.run(
                    SyntheticPoint{topo, 64, 8, 8, pattern, rate, 5, cycles});
                s.print("   %6.0f/%5.2f", res.avgLatency,
                        res.acceptedFlitsPerNode);
            }
            s.print("\n");
        }
        s.print("\n");
    }
    s.print("note: hotspot accepted throughput is pinned by the two "
            "receivers' ejection links on every topology — the "
            "topology-independence of endpoint clogging\n");
}

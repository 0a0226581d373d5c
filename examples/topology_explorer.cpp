/**
 * @file
 * NoC playground: drive the network substrate directly (without the
 * full chip) to measure zero-load latency and saturation throughput of
 * every topology under uniform-random traffic — the classic
 * interconnection-network characterization, driven by this library's
 * synthetic-traffic driver (noc/synthetic_traffic.hpp).
 */

#include <cstdio>

#include "noc/synthetic_traffic.hpp"

using namespace dr;

int
main()
{
    for (const TopologyKind kind :
         {TopologyKind::Mesh, TopologyKind::FlattenedButterfly,
          TopologyKind::Dragonfly, TopologyKind::Crossbar}) {
        std::printf("=== %s (uniform random, 5-flit packets) ===\n",
                    topologyName(kind));
        std::printf("%10s %12s %14s\n", "offered", "latency",
                    "throughput");
        for (const double p : {0.005, 0.02, 0.05, 0.08, 0.12}) {
            const SyntheticResult s =
                runSyntheticLoad(kind, 64, 8, 8,
                                 TrafficPattern::UniformRandom, p, 5,
                                 20000, /*seed=*/0);
            std::printf("%10.3f %12.1f %14.3f\n", s.offeredFlitsPerNode,
                        s.avgLatency, s.acceptedFlitsPerNode);
        }
        std::printf("\n");
    }
    std::printf("Low-radix topologies (mesh) saturate earlier and with "
                "higher latency\nthan the high-radix ones — but none of "
                "this helps memory-node clogging,\nwhich is an endpoint-"
                "link property (Figure 5 of the paper).\n");
    return 0;
}

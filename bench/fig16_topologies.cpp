/**
 * @file
 * Figure 16: Delegated Replies across NoC topologies, each normalized
 * to the same topology without DR. Paper: +21.9% (flattened
 * butterfly), +23.9% (dragonfly), +28.3% (crossbar), +25.8% (mesh) —
 * the benefit is topology-independent because every memory node keeps a
 * single reply link.
 */

#include "figures.hpp"

using namespace dr;

void
fig16_topologies(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "HS", "MM",
                                               "SRAD"};
    s.print("=== Figure 16: DR gain per topology ===\n");
    s.print("%-22s %10s\n", "topology", "DR gain");
    for (const TopologyKind topo :
         {TopologyKind::Mesh, TopologyKind::FlattenedButterfly,
          TopologyKind::Dragonfly, TopologyKind::Crossbar}) {
        std::vector<double> gains;
        for (const auto &gpu : benchSet) {
            SystemConfig cfg = benchConfig(Mechanism::Baseline);
            cfg.noc.topology = topo;
            const double base =
                s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]).gpuIpc;
            cfg.mechanism = Mechanism::DelegatedReplies;
            const double dr = s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]).gpuIpc;
            gains.push_back(dr / base);
        }
        s.print("%-22s %10.3f\n", topologyName(topo), geomean(gains));
    }
    s.print("\npaper: mesh 1.258, flattened butterfly 1.219, "
            "dragonfly 1.239, crossbar 1.283\n");
}

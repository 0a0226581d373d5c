/**
 * @file
 * Figure 5: overprovisioned NoCs. (a) GPU performance with the
 * crossbar, flattened butterfly and dragonfly at nominal and doubled
 * bandwidth, normalized to the nominal mesh; (b) memory-node blocking
 * rates. Paper: changing topology hardly helps (all topologies keep a
 * single reply link per memory node); doubling bandwidth does.
 */

#include "figures.hpp"

using namespace dr;

void
fig05_topology_bw(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "HS", "MM", "LUD"};
    const auto gpuPerf = [&](TopologyKind topo, double bwScale,
                             double &blocking) {
        std::vector<double> ipcs;
        std::vector<double> blocks;
        for (const auto &gpu : benchSet) {
            SystemConfig cfg = benchConfig(Mechanism::Baseline);
            cfg.noc.topology = topo;
            cfg.noc.bandwidthScale = bwScale;
            const RunResults r = s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]);
            ipcs.push_back(r.gpuIpc);
            blocks.push_back(r.memBlockingRate);
        }
        blocking = mean(blocks);
        return geomean(ipcs);
    };

    s.print("=== Figure 5: topology and bandwidth overprovisioning ===\n");
    double meshBlock = 0.0;
    const double mesh = gpuPerf(TopologyKind::Mesh, 1.0, meshBlock);

    s.print("%-22s %10s %10s\n", "config", "GPUperf", "blocking");
    s.print("%-22s %10.3f %10.3f\n", "mesh (baseline)", 1.0, meshBlock);
    for (const TopologyKind topo :
         {TopologyKind::Crossbar, TopologyKind::FlattenedButterfly,
          TopologyKind::Dragonfly}) {
        for (const double bw : {1.0, 2.0}) {
            double blocking = 0.0;
            const double perf = gpuPerf(topo, bw, blocking);
            char label[64];
            std::snprintf(label, sizeof(label), "%s %sx",
                          topologyName(topo), bw > 1.5 ? "2" : "1");
            s.print("%-22s %10.3f %10.3f\n", label, perf / mesh, blocking);
        }
    }
    double blocking2x = 0.0;
    const double mesh2x = gpuPerf(TopologyKind::Mesh, 2.0, blocking2x);
    s.print("%-22s %10.3f %10.3f\n", "mesh 2x", mesh2x / mesh, blocking2x);

    s.print("\npaper: topology changes ~1.0x, doubled bandwidth "
            "clearly above; baseline blocking 72-79%%\n");
}

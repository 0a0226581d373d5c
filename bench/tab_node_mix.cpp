/**
 * @file
 * Section VII "Node mix": DR's GPU gain while varying the CPU/GPU core
 * ratio (8 MCs fixed) and the memory-node count (8 CPUs fixed) on the
 * 64-tile chip. Paper: 30.5/25.8/22.6% with 8/16/24 CPU cores, and
 * 38.2/30.5/10.7% with 4/8/16 memory nodes — clogging (and DR's win)
 * grows as compute outnumbers memory.
 */

#include "figures.hpp"

using namespace dr;

void
tab_node_mix(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "HS"};
    const auto drGain = [&](int cpus, int mems) {
        std::vector<double> gains;
        for (const auto &gpu : benchSet) {
            SystemConfig cfg = benchConfig(Mechanism::Baseline);
            cfg.cpu.numCores = cpus;
            cfg.mem.numNodes = mems;
            cfg.gpu.numCores = 64 - cpus - mems;
            const double base =
                s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]).gpuIpc;
            cfg.mechanism = Mechanism::DelegatedReplies;
            const double dr = s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]).gpuIpc;
            gains.push_back(dr / base);
        }
        return geomean(gains);
    };

    s.print("=== Node mix (64 tiles) ===\n");
    s.print("-- varying CPU cores, 8 memory nodes (paper: "
            "1.305/1.258/1.226) --\n");
    for (const int cpus : {8, 16, 24}) {
        s.print("  %2d CPUs / %2d GPUs: DR gain %.3f\n", cpus,
                64 - cpus - 8, drGain(cpus, 8));
    }
    s.print("-- varying memory nodes, 8 CPU cores (paper: "
            "1.382/1.305/1.107) --\n");
    for (const int mems : {4, 8, 16}) {
        s.print("  %2d MCs / %2d GPUs: DR gain %.3f\n", mems,
                64 - 8 - mems, drGain(8, mems));
    }
    s.print("\npaper: fewer memory nodes or more GPU cores -> more "
            "clogging -> larger DR gains\n");
}

/**
 * @file
 * Chiplet scale-out: Delegated Replies vs the tuned baseline and
 * Realistic Probing on the monolithic 8x8 paper chip and on a 256-node
 * chip of 4x4 chiplets (each a 4x4 sub-mesh) joined by gateway-
 * restricted interposer links, with 4x the cores and 2x the memory
 * nodes. The "mem block" column (mean memory-node blocking rate) says
 * which regime each row measures: the paper chip clogs, its memory
 * nodes blocking about 40% of the time under the baseline, while at
 * this per-core load the 256-node chip barely does (about 3%). So the
 * 256-node rows measure DR on a chip that is not clogged, and its lead
 * there is small.
 *
 * Not a paper figure: the paper stops at the 8x8 chip; this is the
 * scale-out projection the chiplet subsystem exists to measure.
 */

#include "figures.hpp"

using namespace dr;

namespace
{

struct Scale
{
    const char *name;
    bool chiplet;
};

/** Bench config at one scale; DR rides the 4-VN layout as always. */
SystemConfig
scaleConfig(Mechanism mechanism, const Scale &scale)
{
    SystemConfig cfg = benchConfig(mechanism);
    cfg.simCycles = benchCycles(6000);
    cfg.warmupCycles = cfg.simCycles / 2;
    if (!scale.chiplet)
        return cfg;
    // 4x4 chiplets of 4x4 routers, gateway-restricted: two interposer
    // links per chiplet edge concentrate the cross-chiplet traffic.
    // Full-width interposer channels keep the boundary from capping
    // every mechanism equally (a half-width interposer is bisection-
    // bound and flattens the comparison).
    // Hierarchical routing needs >= 3 VCs per VN for phase escalation.
    cfg.noc.topology = TopologyKind::ChipletMesh;
    cfg.noc.chipletsX = 4;
    cfg.noc.chipletsY = 4;
    cfg.noc.chipletSubW = 4;
    cfg.noc.chipletSubH = 4;
    cfg.noc.chipletLinksPerEdge = 2;
    cfg.noc.interposerChannelBytes = 16;
    cfg.noc.meshWidth = 16;
    cfg.noc.meshHeight = 16;
    // 4x the cores but only 2x the memory nodes: 12 GPU cores per
    // memory node, vs 7 on the paper chip.
    cfg.gpu.numCores = 192;
    cfg.cpu.numCores = 48;
    cfg.mem.numNodes = 16;
    if (cfg.noc.vnets) {
        cfg.noc.vcsPerNet = 6;
        cfg.noc.vnetRequestVcs = 3;
        cfg.noc.vnetForwardVcs = 3;
        cfg.noc.vnetReplyVcs = 3;
        cfg.noc.vnetDelegatedVcs = 3;
    } else {
        cfg.noc.vcsPerNet = 3;
    }
    return cfg;
}

} // namespace

void
fig_chiplet_scale(Sweep &s)
{
    const std::vector<std::string> benchSet = {"HS", "SRAD"};
    const Scale scales[] = {{"8x8 mesh (64 nodes)", false},
                            {"4x4 chiplets x 4x4 (256)", true}};
    s.print("=== Chiplet scale-out: DR vs baseline and RP ===\n");
    s.print("%-26s %10s %10s %10s %12s\n", "chip", "mech",
            "geo IPC", "vs base", "mem block");
    for (const Scale &scale : scales) {
        double baseIpc = 0.0;
        for (const Mechanism mech :
             {Mechanism::Baseline, Mechanism::RealisticProbing,
              Mechanism::DelegatedReplies}) {
            const SystemConfig cfg = scaleConfig(mech, scale);
            std::vector<double> ipcs;
            std::vector<double> blocking;
            for (const auto &gpu : benchSet) {
                const RunResults r = s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]);
                ipcs.push_back(r.gpuIpc);
                blocking.push_back(r.memBlockingRate);
            }
            const double ipc = geomean(ipcs);
            if (mech == Mechanism::Baseline)
                baseIpc = ipc;
            s.print("%-26s %10s %10.3f %10.3f %12.3f\n", scale.name,
                    mechanismName(mech), ipc, ipc / baseIpc, mean(blocking));
        }
    }
    s.print("\nexpected: DR ahead of the baseline and RP on both "
            "chips; mem block shows the 64-node chip clogged and the "
            "256-node chip hardly clogged, where DR's lead is small\n");
}

/**
 * @file
 * Figure 19: sensitivity analyses. DR's GPU gain across: L1 size, LLC
 * size, NoC channel width, virtual (shared) networks, mesh size, and
 * memory-node injection buffer size. Paper: gains grow with L1 size
 * (22.9% at 16 KB to 30.2% at 64 KB), are insensitive to LLC size and
 * injection buffer size, shrink with NoC bandwidth (but stay +13.9% at
 * 24 B channels), and hold in shared-network and larger-mesh systems.
 */

#include "figures.hpp"

using namespace dr;

void
fig19_sensitivity(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "HS"};
    const auto drGain = [&](const SystemConfig &proto) {
        std::vector<double> gains;
        for (const auto &gpu : benchSet) {
            SystemConfig cfg = proto;
            cfg.mechanism = Mechanism::Baseline;
            const double base =
                s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]).gpuIpc;
            cfg.mechanism = Mechanism::DelegatedReplies;
            const double dr = s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]).gpuIpc;
            gains.push_back(dr / base);
        }
        return geomean(gains);
    };

    s.print("=== Figure 19: sensitivity of the DR gain ===\n");

    s.print("-- L1 size (paper: 1.229 @16KB ... 1.302 @64KB) --\n");
    for (const int kb : {16, 48, 64}) {
        SystemConfig cfg = benchConfig(Mechanism::Baseline);
        cfg.gpu.l1SizeKB = kb;
        s.print("  L1 %2d KB: %.3f\n", kb, drGain(cfg));
    }

    s.print("-- LLC slice size (paper: insensitive, 1.25-1.26) --\n");
    for (const int kb : {512, 1024, 2048}) {
        SystemConfig cfg = benchConfig(Mechanism::Baseline);
        cfg.mem.llcSliceKB = kb;
        s.print("  LLC %4d KB/slice: %.3f\n", kb, drGain(cfg));
    }

    s.print("-- NoC channel width (paper: larger gains when "
            "constrained; 1.139 even at 24 B) --\n");
    for (const double scale : {0.5, 1.0, 1.5}) {
        SystemConfig cfg = benchConfig(Mechanism::Baseline);
        cfg.noc.bandwidthScale = scale;
        s.print("  %2.0f B channels: %.3f\n", 16.0 * scale, drGain(cfg));
    }

    s.print("-- Virtual networks (paper: 1.234 with 1 VC, 1.269 "
            "with 2 VCs per vnet) --\n");
    for (const int vcs : {1, 2}) {
        SystemConfig cfg = benchConfig(Mechanism::Baseline);
        cfg.noc.sharedPhysical = true;
        cfg.noc.sharedReqVcs = vcs;
        cfg.noc.sharedReplyVcs = vcs;
        s.print("  shared network, %d VC/vnet: %.3f\n", vcs, drGain(cfg));
    }

    // The same sensitivity point with the first-class virtual-network
    // subsystem (noc.vnets): per-message-class reserved VC ranges and
    // (class, VN) arbitration on the split physical networks, instead
    // of the legacy request/reply VC split of the shared network above.
    // EXPERIMENTS.md reports both layouts side by side.
    s.print("-- Virtual networks, first-class subsystem (noc.vnets; "
            "reserved VC ranges per message class) --\n");
    for (const int vcs : {1, 2}) {
        SystemConfig cfg = benchConfig(Mechanism::Baseline);
        cfg.noc.vnets = true;
        cfg.noc.vcsPerNet = 2 * vcs;  // request+forward / reply+delegated
        cfg.noc.vnetRequestVcs = vcs;
        cfg.noc.vnetForwardVcs = vcs;
        cfg.noc.vnetReplyVcs = vcs;
        cfg.noc.vnetDelegatedVcs = vcs;
        s.print("  vnets on, %d VC/vnet: %.3f\n", vcs, drGain(cfg));
    }

    s.print("-- Mesh size (paper: similar gains at 10x10 and 12x12) --\n");
    for (const int dim : {8, 10, 12}) {
        SystemConfig cfg = benchConfig(Mechanism::Baseline);
        cfg.noc.meshWidth = dim;
        cfg.noc.meshHeight = dim;
        const int tiles = dim * dim;
        cfg.mem.numNodes = tiles / 8;
        cfg.cpu.numCores = tiles / 4;
        cfg.gpu.numCores = tiles - cfg.mem.numNodes - cfg.cpu.numCores;
        s.print("  %dx%d mesh: %.3f\n", dim, dim, drGain(cfg));
    }

    s.print("-- Memory-node injection buffer (paper: largely "
            "insensitive) --\n");
    for (const int flits : {18, 36, 72}) {
        SystemConfig cfg = benchConfig(Mechanism::Baseline);
        cfg.noc.memInjBufferFlits = flits;
        s.print("  %2d flits: %.3f\n", flits, drGain(cfg));
    }
}

/**
 * @file
 * Figure 6: Asymmetric VC Partitioning (AVCP) [33] on a shared physical
 * network with the same aggregate bandwidth as the baseline. Paper:
 * AVCP is ineffective (<3% best case, HM flat) and *hurts* write-heavy
 * BP because it steals (virtual) request-network capacity.
 */

#include "figures.hpp"

using namespace dr;

void
fig06_avcp(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "HS", "MM", "NN",
                                               "BP"};
    struct Split
    {
        int req;
        int reply;
    };
    const std::vector<Split> splits = {{2, 2}, {1, 3}, {3, 1}};

    s.print("=== Figure 6: asymmetric VC partitioning (shared "
            "network) ===\n");
    s.print("%-8s", "bench");
    for (const auto &split : splits)
        s.print("   req%d:rep%d", split.req, split.reply);
    s.print("   (normalized to the 2:2 split)\n");

    std::vector<std::vector<double>> perSplit(splits.size());
    for (const auto &gpu : benchSet) {
        std::vector<double> ipcs;
        for (const auto &split : splits) {
            SystemConfig cfg = benchConfig(Mechanism::Baseline);
            cfg.noc.sharedPhysical = true;
            cfg.noc.sharedReqVcs = split.req;
            cfg.noc.sharedReplyVcs = split.reply;
            const RunResults r = s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]);
            ipcs.push_back(r.gpuIpc);
        }
        s.print("%-8s", gpu.c_str());
        for (std::size_t i = 0; i < splits.size(); ++i) {
            s.print("   %9.3f", ipcs[i] / ipcs[0]);
            perSplit[i].push_back(ipcs[i] / ipcs[0]);
        }
        s.print("\n");
    }
    s.print("%-8s", "HM");
    for (auto &column : perSplit)
        s.print("   %9.3f", harmonicMean(column));
    s.print("\n\npaper: best case +3%%, harmonic mean flat, BP hurt "
            "by fewer request VCs\n");
}

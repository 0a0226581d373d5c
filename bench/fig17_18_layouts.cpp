/**
 * @file
 * Figures 17/18: Delegated Replies across chip layouts (each normalized
 * to the same layout without DR, under its best routing). Paper: GPU
 * gains are consistent (25.8/25.3/29.0/27.0% for Baseline/B/C/D); CPU
 * gains are largest for layouts B and D where CPU-GPU interference is
 * worst (13.4% and 20.9%).
 */

#include "figures.hpp"

using namespace dr;

void
fig17_18_layouts(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "HS", "MM",
                                               "SRAD"};
    s.print("=== Figures 17/18: DR gain per chip layout ===\n");
    s.print("%-12s %10s %10s\n", "layout", "GPU gain", "CPU gain");
    for (const ChipLayout layout :
         {ChipLayout::Baseline, ChipLayout::LayoutB, ChipLayout::LayoutC,
          ChipLayout::LayoutD}) {
        std::vector<double> gpuGain, cpuGain;
        for (const auto &gpu : benchSet) {
            SystemConfig cfg = benchConfig(Mechanism::Baseline);
            cfg.layout = layout;
            applyDefaultRouting(cfg);
            const RunResults base = s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]);
            cfg.mechanism = Mechanism::DelegatedReplies;
            const RunResults dr = s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]);
            gpuGain.push_back(dr.gpuIpc / base.gpuIpc);
            cpuGain.push_back(dr.cpuIpc / base.cpuIpc);
        }
        s.print("%-12s %10.3f %10.3f\n", layoutName(layout),
                geomean(gpuGain), geomean(cpuGain));
    }
    s.print("\npaper: GPU 1.258/1.253/1.290/1.270; CPU "
            "1.038/1.134/1.022/1.209 (B and D suffer the most "
            "interference)\n");
}

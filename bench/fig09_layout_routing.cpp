/**
 * @file
 * Figure 9: chip layouts (Figure 1) x CDR routing orders. Average GPU
 * and CPU performance normalized to Baseline YX-XY. Paper: only the
 * baseline layout provides both high CPU and GPU performance; layout B
 * needs XY-YX ordering; layout C favours CPUs; layout D favours GPUs.
 */

#include "figures.hpp"

using namespace dr;

void
fig09_layout_routing(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "HS", "MM"};

    struct Point
    {
        double gpu;
        double cpu;
    };

    const auto run = [&](ChipLayout layout, RoutingKind req,
                         RoutingKind reply) -> Point {
        std::vector<double> gpu, cpu;
        for (const auto &g : benchSet) {
            SystemConfig cfg = benchConfig(Mechanism::Baseline);
            cfg.layout = layout;
            cfg.noc.requestRouting = req;
            cfg.noc.replyRouting = reply;
            const RunResults r = s.run(cfg, g, cpuCoRunnersFor(g)[0]);
            gpu.push_back(r.gpuIpc);
            cpu.push_back(r.cpuIpc);
        }
        return {geomean(gpu), geomean(cpu)};
    };
    s.print("=== Figure 9: layouts x routing (normalized to "
            "Baseline YX-XY) ===\n");
    const Point base =
        run(ChipLayout::Baseline, RoutingKind::DimOrderYX,
            RoutingKind::DimOrderXY);

    struct Config
    {
        const char *name;
        ChipLayout layout;
        RoutingKind req;
        RoutingKind reply;
    };
    const std::vector<Config> configs = {
        {"Base YX-XY", ChipLayout::Baseline, RoutingKind::DimOrderYX,
         RoutingKind::DimOrderXY},
        {"Base XY-XY", ChipLayout::Baseline, RoutingKind::DimOrderXY,
         RoutingKind::DimOrderXY},
        {"B XY-YX", ChipLayout::LayoutB, RoutingKind::DimOrderXY,
         RoutingKind::DimOrderYX},
        {"B XY-XY", ChipLayout::LayoutB, RoutingKind::DimOrderXY,
         RoutingKind::DimOrderXY},
        {"C XY-YX", ChipLayout::LayoutC, RoutingKind::DimOrderXY,
         RoutingKind::DimOrderYX},
        {"C XY-XY", ChipLayout::LayoutC, RoutingKind::DimOrderXY,
         RoutingKind::DimOrderXY},
        {"D XY-XY", ChipLayout::LayoutD, RoutingKind::DimOrderXY,
         RoutingKind::DimOrderXY},
    };

    s.print("%-12s %10s %10s\n", "config", "GPUperf", "CPUperf");
    for (const auto &c : configs) {
        const Point p = run(c.layout, c.req, c.reply);
        s.print("%-12s %10.3f %10.3f\n", c.name, p.gpu / base.gpu,
                p.cpu / base.cpu);
    }
    s.print("\npaper: Baseline YX-XY best overall; B loses GPU perf; "
            "C favours CPUs; D favours GPUs\n");
}

/**
 * @file
 * Figure 7: adaptive routing (DyXY [45], Footprint [22], HARE [37])
 * versus the baseline's CDR. Paper: adaptive routing does not help —
 * the clogged links are the bottleneck and cannot be routed around —
 * and typically costs a little performance.
 */

#include "figures.hpp"

using namespace dr;

void
fig07_adaptive(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "HS", "MM", "LUD",
                                               "SRAD"};
    s.print("=== Figure 7: adaptive routing vs CDR baseline ===\n");
    s.print("%-8s %10s %10s %10s %10s\n", "bench", "DyXY",
            "Footprint", "HARE", "DyXY-4VC");

    std::vector<double> dyxy, fp, hare, dyxy4;
    for (const auto &gpu : benchSet) {
        SystemConfig cfg = benchConfig(Mechanism::Baseline);
        const double base = s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]).gpuIpc;

        auto measure = [&](RoutingKind kind, int vcs) {
            SystemConfig c = benchConfig(Mechanism::Baseline);
            c.noc.requestRouting = kind;
            c.noc.replyRouting = kind;
            c.noc.vcsPerNet = vcs;
            return s.run(c, gpu, cpuCoRunnersFor(gpu)[0]).gpuIpc /
                   base;
        };
        const double d = measure(RoutingKind::DyXY, 2);
        const double f = measure(RoutingKind::Footprint, 2);
        const double h = measure(RoutingKind::Hare, 2);
        const double d4 = measure(RoutingKind::DyXY, 4);
        s.print("%-8s %10.3f %10.3f %10.3f %10.3f\n", gpu.c_str(), d,
                f, h, d4);
        dyxy.push_back(d);
        fp.push_back(f);
        hare.push_back(h);
        dyxy4.push_back(d4);
    }
    s.print("%-8s %10.3f %10.3f %10.3f %10.3f\n", "GM", geomean(dyxy),
            geomean(fp), geomean(hare), geomean(dyxy4));
    s.print("\npaper: all adaptive schemes at or slightly below "
            "1.0x; the footnote reports that extra VCs (DyXY-4VC "
            "column) partially close the gap but never beat the "
            "baseline\n");
}

/**
 * @file
 * Area and energy analysis (Sections III.B, IV, VII). Area: DSENT-like
 * model — baseline mesh 2.27 mm^2, double-bandwidth mesh 5.76 mm^2
 * (2.5x), Delegated Replies hardware 0.172 mm^2 (~5% of the extra
 * double-bandwidth area). Energy: DR slightly reduces dynamic NoC
 * energy (fewer data hops) while RP increases it (5.9x request
 * inflation, probe misses).
 */

#include "figures.hpp"
#include "power/noc_power.hpp"
#include "power/sram_area.hpp"

using namespace dr;

void
tab_energy_area(Sweep &s)
{
    s.print("=== NoC area (DSENT-like, 22 nm) ===\n");
    SystemConfig cfg = SystemConfig::makePaper();
    const double nominal = nocAreaMm2(cfg);
    cfg.noc.bandwidthScale = 2.0;
    const double doubled = nocAreaMm2(cfg);
    cfg.noc.bandwidthScale = 1.0;
    s.print("baseline mesh:          %6.2f mm^2 (paper 2.27)\n", nominal);
    s.print("double-bandwidth mesh:  %6.2f mm^2 (paper 5.76, %.2fx)\n",
            doubled, doubled / nominal);
    s.print("DR core pointers:       %6.3f mm^2 (paper 0.080)\n",
            drPointerAreaMm2(cfg));
    s.print("DR FRQs:                %6.3f mm^2 (paper 0.092)\n",
            drFrqAreaMm2(cfg));
    s.print("DR total:               %6.3f mm^2 (paper 0.172, ~5%% "
            "of the 2x-BW extra area)\n", drTotalAreaMm2(cfg));
    s.print("DR / (2xBW extra):      %6.1f %%\n",
            100.0 * drTotalAreaMm2(cfg) / (doubled - nominal));
    // The headline DR configuration (core/experiment.cpp) runs the
    // first-class 4-VN layout with one extra reserved VC per side
    // (vcsPerNet 2 -> 3) on top of the paper's pointer+FRQ hardware;
    // price that buffer growth the same way.
    cfg.noc.vcsPerNet = 3;
    const double drFabric = nocAreaMm2(cfg);
    cfg.noc.vcsPerNet = 2;
    s.print("DR 4-VN fabric (+1 VC/side): %.2f mm^2 (+%.2f over "
            "baseline)\n", drFabric, drFabric - nominal);
    s.print("DR total incl. fabric / (2xBW extra): %.1f %%\n\n",
            100.0 * (drTotalAreaMm2(cfg) + drFabric - nominal) /
                (doubled - nominal));

    s.print("=== NoC dynamic energy and request inflation ===\n");
    const std::vector<std::string> benchSet = {"2DCON", "HS", "MM"};
    const NocEnergyModel model;
    s.print("%-8s %12s %12s %12s %12s\n", "bench", "RP energy",
            "DR energy", "RPreq/base", "DRreq/base");
    std::vector<double> rpE, drE, rpReq;
    for (const auto &gpu : benchSet) {
        RunResults r[3];
        int i = 0;
        for (const Mechanism m :
             {Mechanism::Baseline, Mechanism::RealisticProbing,
              Mechanism::DelegatedReplies}) {
            r[i++] = s.run(benchConfig(m), gpu, cpuCoRunnersFor(gpu)[0]);
        }
        // Energy per unit of work (per GPU instruction): mechanisms
        // execute different amounts of work per cycle.
        auto perInstr = [&](const RunResults &x) {
            const double uj = model.dynamicUj(
                x.bufferWrites, x.switchTraversals, x.linkTraversals);
            return uj / (x.gpuIpc * static_cast<double>(x.cycles));
        };
        const double rpRatio = perInstr(r[1]) / perInstr(r[0]);
        const double drRatio = perInstr(r[2]) / perInstr(r[0]);
        const double rpInflate =
            (static_cast<double>(r[1].requestsInjected) /
             (r[1].gpuIpc * r[1].cycles)) /
            (static_cast<double>(r[0].requestsInjected) /
             (r[0].gpuIpc * r[0].cycles));
        const double drInflate =
            (static_cast<double>(r[2].requestsInjected) /
             (r[2].gpuIpc * r[2].cycles)) /
            (static_cast<double>(r[0].requestsInjected) /
             (r[0].gpuIpc * r[0].cycles));
        s.print("%-8s %12.3f %12.3f %12.2f %12.2f\n", gpu.c_str(),
                rpRatio, drRatio, rpInflate, drInflate);
        rpE.push_back(rpRatio);
        drE.push_back(drRatio);
        rpReq.push_back(rpInflate);
    }
    s.print("%-8s %12.3f %12.3f %12.2f\n", "GM", geomean(rpE),
            geomean(drE), geomean(rpReq));
    s.print("\npaper: RP +9.4%% dynamic NoC energy and 5.9x NoC "
            "requests; DR -1.1%% energy\n");
}

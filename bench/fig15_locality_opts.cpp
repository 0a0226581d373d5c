/**
 * @file
 * Figure 15: Delegated Replies on top of inter-core locality
 * optimizations — DC-L1 [30] and DynEB [29] shared L1s under
 * round-robin and distributed CTA scheduling. Paper: the optimizations
 * do not remove clogging, so DR still helps (+23.5% over DynEB with
 * round-robin scheduling, +9.9% with distributed scheduling).
 */

#include "figures.hpp"

using namespace dr;

void
fig15_locality_opts(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "SC", "HS", "NN",
                                               "LUD"};
    const auto gm = [&](L1Organization org, CtaSchedule sched,
                        Mechanism mech) {
        std::vector<double> ipcs;
        for (const auto &gpu : benchSet) {
            SystemConfig cfg = benchConfig(mech);
            cfg.gpu.l1Org = org;
            cfg.gpu.ctaSchedule = sched;
            ipcs.push_back(
                s.run(cfg, gpu, cpuCoRunnersFor(gpu)[0]).gpuIpc);
        }
        return geomean(ipcs);
    };

    s.print("=== Figure 15: DR on top of shared-L1 organizations ===\n");
    s.print("(geomean over %zu benchmarks, normalized to private L1 "
            "+ RR baseline)\n\n", benchSet.size());

    const double base = gm(L1Organization::Private,
                           CtaSchedule::RoundRobin, Mechanism::Baseline);

    s.print("%-26s %10s %10s %10s\n", "config", "baseline", "+DR", "DR gain");
    for (const CtaSchedule sched :
         {CtaSchedule::RoundRobin, CtaSchedule::Distributed}) {
        for (const L1Organization org :
             {L1Organization::Private, L1Organization::DcL1,
              L1Organization::DynEB}) {
            const double plain = gm(org, sched, Mechanism::Baseline);
            const double dr = gm(org, sched, Mechanism::DelegatedReplies);
            char label[64];
            std::snprintf(label, sizeof(label), "%s + %s",
                          l1OrganizationName(org), ctaScheduleName(sched));
            s.print("%-26s %10.3f %10.3f %10.3f\n", label,
                    plain / base, dr / base, dr / plain);
        }
    }
    s.print("\npaper: DynEB >= DC-L1 >= private on average; DR adds "
            "+23.5%% (RR) / +9.9%% (distributed) over DynEB\n");
}

/**
 * @file
 * Ablation of the Delegated Replies design choices (DESIGN.md §5):
 *  - reactive delegation (only when the reply NI is blocked, the
 *    paper's policy) versus delegating every delegatable reply;
 *  - FRQ remote-over-local priority (the paper's deadlock-avoidance
 *    choice) versus local-first;
 *  - the first-class 4-VN layout (the headline configuration) versus
 *    the legacy two-class VC split without reserved delegated-traffic
 *    ranges.
 */

#include "figures.hpp"

using namespace dr;

void
ablation_dr(Sweep &s)
{
    const std::vector<std::string> benchSet = {"2DCON", "HS", "BT"};
    s.print("=== Delegated Replies ablations ===\n");
    s.print("%-8s %12s %12s %12s %14s %12s\n", "bench", "baseline",
            "DR", "DR-always", "DR-localFirst", "DR-legacyVC");
    for (const auto &gpu : benchSet) {
        const std::string cpu = cpuCoRunnersFor(gpu)[0];
        const double base =
            s.run(benchConfig(Mechanism::Baseline), gpu, cpu)
                .gpuIpc;

        SystemConfig drCfg = benchConfig(Mechanism::DelegatedReplies);
        const double dr = s.run(drCfg, gpu, cpu).gpuIpc;

        drCfg.dr.delegateAlways = true;
        const double always = s.run(drCfg, gpu, cpu).gpuIpc;
        drCfg.dr.delegateAlways = false;

        drCfg.dr.frqRemotePriority = false;
        const double localFirst = s.run(drCfg, gpu, cpu).gpuIpc;
        drCfg.dr.frqRemotePriority = true;

        // Legacy layout: DR without the reserved per-class VC ranges,
        // at the Table I budget (benchConfig turns noc.vnets on for DR
        // and adds one VC per side for the DR-only VNs; undo both).
        drCfg.noc.vnets = false;
        drCfg.noc.vcsPerNet = 2;
        const double legacy = s.run(drCfg, gpu, cpu).gpuIpc;

        s.print("%-8s %12.3f %12.3f %12.3f %14.3f %12.3f\n", gpu.c_str(), 1.0,
                dr / base, always / base, localFirst / base, legacy / base);
    }
    s.print("\nexpected: reactive DR comparable to delegate-always "
            "on the 4-VN fabric (the reserved delegated VN absorbs "
            "gratuitous delegation; on the legacy split it erases "
            "most of the gain); remote priority comparable to "
            "local-first (paper found both safe variants perform "
            "similarly); 4-VN layout >= legacy Table I split (one "
            "extra reserved VC per side, priced by the area model)\n");
}

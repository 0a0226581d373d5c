/**
 * @file
 * Figure 2: inter-core locality. For each GPU benchmark, the fraction
 * of L1 cache misses whose line is present in at least one remote L1 at
 * miss time. Paper: more than 57% on average, with 2DCON/HS/NN highest.
 */

#include "figures.hpp"

using namespace dr;

void
fig02_locality(Sweep &s)
{
    s.print("=== Figure 2: inter-core locality "
            "(%% of L1 misses in >=1 remote L1) ===\n");
    s.print("%-8s %12s %12s\n", "bench", "remoteCopy%", "l1Miss%");
    std::vector<double> fractions;
    for (const auto &name : gpuBenchmarkNames()) {
        SystemConfig cfg = benchConfig(Mechanism::Baseline);
        const RunResults r = s.run(cfg, name, cpuCoRunnersFor(name)[0]);
        s.print("%-8s %12.1f %12.1f\n", name.c_str(),
                100.0 * r.remoteCopyFraction(), 100.0 * r.gpuL1MissRate);
        fractions.push_back(r.remoteCopyFraction());
    }
    s.print("%-8s %12.1f\n", "AVG", 100.0 * mean(fractions));
    s.print("\npaper: >57%% average; 2DCON, HS and NN above 60%%\n");
}

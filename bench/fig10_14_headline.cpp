/**
 * @file
 * Figures 10-14, the paper's headline evaluation, from one set of runs:
 * all Table II workloads (11 GPU benchmarks x 3 CPU co-runners) under
 * Baseline, RP and Delegated Replies.
 *
 *  Fig 10: GPU performance improvement (DR +25.7% avg vs baseline,
 *          +14.2% vs RP; whiskers = min/max across CPU co-runners)
 *  Fig 11: received data rate (flits/cycle per GPU core, +26.5% avg)
 *  Fig 12: CPU network latency (DR -44.2% avg)
 *  Fig 13: CPU performance (+8.8% avg on clogged workloads)
 *  Fig 14: L1 miss breakdown (54.8% forwarded, 74.4% remote hits)
 *
 * DR_BENCH_CPUS (1-3, default 3) sets the CPU co-runners per GPU
 * benchmark; any other value is fatal.
 */

#include "figures.hpp"

using namespace dr;

void
fig10_14_headline(Sweep &s)
{
    const int cpusPer = benchCpus();

    struct Cell
    {
        RunResults r[3];  //!< Baseline, RP, DR
    };
    std::vector<std::vector<Cell>> results;  // [gpu][cpu]

    const auto gpuNames = gpuBenchmarkNames();
    for (const auto &gpu : gpuNames) {
        results.emplace_back();
        const auto &cpus = cpuCoRunnersFor(gpu);
        for (int c = 0; c < cpusPer; ++c) {
            Cell cell;
            int m = 0;
            for (const Mechanism mech :
                 {Mechanism::Baseline, Mechanism::RealisticProbing,
                  Mechanism::DelegatedReplies}) {
                cell.r[m++] = s.run(benchConfig(mech), gpu, cpus[c]);
            }
            results.back().push_back(cell);
        }
    }

    // ---- Figure 10: GPU performance ----
    s.print("=== Figure 10: GPU performance improvement ===\n");
    s.print("%-8s %9s %9s %9s %9s %9s\n", "bench", "RP/base",
            "DR/base", "DR/RP", "min", "max");
    std::vector<double> rpG, drG, drRpG;
    for (std::size_t g = 0; g < results.size(); ++g) {
        std::vector<double> rp, dr, drrp;
        for (const auto &cell : results[g]) {
            rp.push_back(cell.r[1].gpuIpc / cell.r[0].gpuIpc);
            dr.push_back(cell.r[2].gpuIpc / cell.r[0].gpuIpc);
            drrp.push_back(cell.r[2].gpuIpc / cell.r[1].gpuIpc);
        }
        s.print("%-8s %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                gpuNames[g].c_str(), mean(rp), mean(dr), mean(drrp),
                *std::min_element(dr.begin(), dr.end()),
                *std::max_element(dr.begin(), dr.end()));
        rpG.push_back(mean(rp));
        drG.push_back(mean(dr));
        drRpG.push_back(mean(drrp));
    }
    s.print("%-8s %9.3f %9.3f %9.3f\n", "AVG", mean(rpG), mean(drG),
            mean(drRpG));
    s.print("paper: RP 1.101, DR 1.257 (up to 1.659 vs baseline), "
            "DR/RP 1.142 (up to 1.306)\n\n");

    // ---- Figure 11: received data rate ----
    s.print("=== Figure 11: received data rate (flits/cycle per GPU "
            "core) ===\n");
    s.print("%-8s %9s %9s %9s %9s %9s\n", "bench", "base", "RP", "DR",
            "RP/base", "DR/base");
    std::vector<double> drRate, rpRate;
    for (std::size_t g = 0; g < results.size(); ++g) {
        std::vector<double> base, rp, dr;
        for (const auto &cell : results[g]) {
            base.push_back(cell.r[0].gpuDataRate);
            rp.push_back(cell.r[1].gpuDataRate);
            dr.push_back(cell.r[2].gpuDataRate);
        }
        s.print("%-8s %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                gpuNames[g].c_str(), mean(base), mean(rp), mean(dr),
                mean(rp) / mean(base), mean(dr) / mean(base));
        rpRate.push_back(mean(rp) / mean(base));
        drRate.push_back(mean(dr) / mean(base));
    }
    s.print("%-8s %39.3f %9.3f\n", "AVG", mean(rpRate), mean(drRate));
    s.print("paper: DR +26.5%% avg (up to +70.9%%), RP +11.9%%\n\n");

    // ---- Figure 12: CPU network latency ----
    s.print("=== Figure 12: CPU request latency (normalized to "
            "baseline) ===\n");
    s.print("%-8s %9s %9s\n", "bench", "RP", "DR");
    std::vector<double> drLat;
    for (std::size_t g = 0; g < results.size(); ++g) {
        std::vector<double> rp, dr;
        for (const auto &cell : results[g]) {
            rp.push_back(cell.r[1].cpuLatency / cell.r[0].cpuLatency);
            dr.push_back(cell.r[2].cpuLatency / cell.r[0].cpuLatency);
        }
        s.print("%-8s %9.3f %9.3f\n", gpuNames[g].c_str(), mean(rp), mean(dr));
        drLat.push_back(mean(dr));
    }
    s.print("%-8s %19.3f\n", "AVG", mean(drLat));
    s.print("paper: DR reduces CPU packet latency 44.2%% avg (to "
            "~0.56x)\n\n");

    // ---- Figure 13: CPU performance ----
    s.print("=== Figure 13: CPU performance improvement ===\n");
    s.print("%-8s %9s %9s %9s\n", "bench", "RP/base", "DR/base", "blocked?");
    std::vector<double> drCpuAll, drCpuClogged;
    for (std::size_t g = 0; g < results.size(); ++g) {
        std::vector<double> rp, dr;
        double blocking = 0.0;
        for (const auto &cell : results[g]) {
            rp.push_back(cell.r[1].cpuIpc / cell.r[0].cpuIpc);
            dr.push_back(cell.r[2].cpuIpc / cell.r[0].cpuIpc);
            blocking += cell.r[0].memBlockingRate;
        }
        blocking /= static_cast<double>(results[g].size());
        const bool clogged = blocking > 0.3;
        s.print("%-8s %9.3f %9.3f %9s\n", gpuNames[g].c_str(),
                mean(rp), mean(dr), clogged ? "yes" : "no");
        drCpuAll.push_back(mean(dr));
        if (clogged)
            drCpuClogged.push_back(mean(dr));
    }
    s.print("%-8s %19.3f  (clogged-only: %.3f)\n", "AVG",
            mean(drCpuAll), mean(drCpuClogged));
    s.print("paper: +3.8%% avg over all workloads, +8.8%% over "
            "clogged ones (up to +19.8%%)\n\n");

    // ---- Figure 14: L1 miss breakdown under DR ----
    s.print("=== Figure 14: L1 miss breakdown (Delegated Replies) ===\n");
    s.print("%-8s %10s %10s %10s %10s\n", "bench", "fwd%", "rHit%",
            "rDelay%", "rMiss%");
    std::vector<double> fwd, rhr;
    for (std::size_t g = 0; g < results.size(); ++g) {
        std::uint64_t misses = 0, dlg = 0, rh = 0, rd = 0, rm = 0;
        for (const auto &cell : results[g]) {
            misses += cell.r[2].l1Misses;
            dlg += cell.r[2].delegations;
            rh += cell.r[2].frqRemoteHits;
            rd += cell.r[2].frqDelayedHits;
            rm += cell.r[2].frqRemoteMisses;
        }
        const double resolved = static_cast<double>(rh + rd + rm) + 1e-9;
        s.print("%-8s %10.1f %10.1f %10.1f %10.1f\n",
                gpuNames[g].c_str(),
                100.0 * static_cast<double>(dlg) /
                    static_cast<double>(misses ? misses : 1),
                100.0 * static_cast<double>(rh) / resolved,
                100.0 * static_cast<double>(rd) / resolved,
                100.0 * static_cast<double>(rm) / resolved);
        fwd.push_back(static_cast<double>(dlg) /
                      static_cast<double>(misses ? misses : 1));
        rhr.push_back(static_cast<double>(rh + rd) / resolved);
    }
    s.print("%-8s %10.1f %10.1f (remote hits incl. delayed)\n", "AVG",
            100.0 * mean(fwd), 100.0 * mean(rhr));
    s.print("paper: 54.8%% of misses forwarded; 74.4%% of those are "
            "remote hits\n");
}

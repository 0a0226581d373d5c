#include "core/experiment.hpp"

#include <cmath>

#include "common/log.hpp"

namespace dr
{

RunResults
runWorkload(const SystemConfig &cfg, const std::string &gpu,
            const std::string &cpu)
{
    HeteroSystem system(cfg, gpu, cpu);
    return system.run();
}

double
geomean(const std::vector<double> &values)
{
    double logSum = 0.0;
    int count = 0;
    for (const double v : values) {
        if (v > 0.0) {
            logSum += std::log(v);
            ++count;
        }
    }
    return count ? std::exp(logSum / count) : 0.0;
}

double
harmonicMean(const std::vector<double> &values)
{
    double invSum = 0.0;
    int count = 0;
    for (const double v : values) {
        if (v > 0.0) {
            invSum += 1.0 / v;
            ++count;
        }
    }
    return count && invSum > 0.0 ? count / invSum : 0.0;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

Cycle
benchCycles(Cycle fallback)
{
    return static_cast<Cycle>(envWhole(
        "DR_BENCH_CYCLES", 1, 1000000000000LL,
        static_cast<long long>(fallback)));
}

int
benchCpus()
{
    return static_cast<int>(envWhole("DR_BENCH_CPUS", 1, 3, 3));
}

SystemConfig
benchConfig(Mechanism mechanism)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mechanism = mechanism;
    // Delegated Replies runs on the first-class 4-VN layout (reserved
    // per-message-class VC ranges, noc/vnet.hpp): delegated forwards
    // and core-to-core replies get their own virtual networks, as in
    // the paper's design. The ordinary request/reply classes keep the
    // legacy Table I capacity (2 VCs each) and the two DR-only VNs add
    // one reserved VC per side — starving replies down to 1 VC to fit
    // vcsPerNet=2 inverts the headline (replies are the clogging
    // traffic). The extra VC per port is DR hardware, priced by the
    // area model. The legacy two-class VC split remains available as
    // an ablation row (bench/ablation_dr.cpp) and for sweeps that flip
    // cfg.mechanism on a fixed fabric.
    if (mechanism == Mechanism::DelegatedReplies) {
        cfg.noc.vnets = true;
        cfg.noc.vcsPerNet = 3;
        cfg.noc.vnetRequestVcs = 2;
        cfg.noc.vnetForwardVcs = 1;
        cfg.noc.vnetReplyVcs = 2;
        cfg.noc.vnetDelegatedVcs = 1;
    }
    cfg.simCycles = benchCycles(30000);
    // The LLC needs to warm before the clogging regime is reached.
    cfg.warmupCycles = cfg.simCycles / 2;
    return cfg;
}

} // namespace dr

#ifndef DR_CORE_HETERO_SYSTEM_HPP
#define DR_CORE_HETERO_SYSTEM_HPP

/**
 * @file
 * Full-system assembly: the heterogeneous chip of Figure 1 — GPU cores,
 * CPU cores and memory nodes on the interconnect, driven by one GPU
 * kernel (Table II) and one CPU benchmark profile. The HeteroSystem
 * owns everything, runs warmup + measurement, and reports the metrics
 * that the paper's figures are built from.
 */

#include <memory>
#include <string>
#include <vector>

#include "coherence/gpu_coherence.hpp"
#include "coherence/mesi.hpp"
#include "common/config.hpp"
#include "common/ownership.hpp"
#include "core/layout.hpp"
#include "cpu/cpu_node.hpp"
#include "debug/progress_watchdog.hpp"
#include "gpu/cta_scheduler.hpp"
#include "gpu/kernel.hpp"
#include "gpu/l1_cache.hpp"
#include "gpu/sm_core.hpp"
#include "mem/address_map.hpp"
#include "mem/mem_node.hpp"
#include "noc/interconnect.hpp"

namespace dr
{

/** Measured results of one run (over the measurement window). */
struct RunResults
{
    Cycle cycles = 0;

    // Headline metrics.
    double gpuIpc = 0.0;        //!< GPU instructions per cycle (chip)
    double cpuIpc = 0.0;        //!< mean CPU instructions per cycle/core
    double cpuLatency = 0.0;    //!< mean CPU request latency (cycles)
    double gpuDataRate = 0.0;   //!< reply flits/cycle per GPU core (Fig 11)
    double memBlockingRate = 0.0;  //!< Fig 5b

    // L1 miss breakdown (Figure 14).
    std::uint64_t l1Misses = 0;
    std::uint64_t missesWithRemoteCopy = 0;  //!< Figure 2
    std::uint64_t delegations = 0;
    std::uint64_t frqRemoteHits = 0;
    std::uint64_t frqDelayedHits = 0;
    std::uint64_t frqRemoteMisses = 0;

    // RP accounting.
    std::uint64_t probesSent = 0;
    std::uint64_t probeHits = 0;
    std::uint64_t requestsInjected = 0;  //!< request-network packets

    // Energy-model inputs.
    std::uint64_t switchTraversals = 0;
    std::uint64_t bufferWrites = 0;
    std::uint64_t linkTraversals = 0;

    double gpuL1MissRate = 0.0;
    double llcHitRate = 0.0;

    /** Fraction of L1 misses with a copy in a remote L1 (Figure 2). */
    double remoteCopyFraction() const;
    /** Fraction of misses forwarded as delegated replies (Figure 14). */
    double forwardedFraction() const;
    /** Remote-hit rate among delegated replies (Figure 14). */
    double remoteHitRate() const;
};

/**
 * The simulated chip. Construct with a (validated) configuration plus
 * workload names, then call run().
 */
class HeteroSystem
{
  public:
    HeteroSystem(const SystemConfig &cfg, const std::string &gpuBenchmark,
                 const std::string &cpuBenchmark);

    /** Run a caller-supplied kernel (trace-driven or custom). */
    HeteroSystem(const SystemConfig &cfg,
                 std::unique_ptr<KernelAccessPattern> kernel,
                 const std::string &cpuBenchmark);

    ~HeteroSystem();

    HeteroSystem(const HeteroSystem &) = delete;
    HeteroSystem &operator=(const HeteroSystem &) = delete;

    /** Run cfg.warmupCycles then cfg.simCycles; returns measurements. */
    RunResults run();

    /** Advance the system by `cycles` without resetting statistics. */
    void advance(Cycle cycles);

    /** Collect results for the cycles since the last stats reset. */
    RunResults collect(Cycle measuredCycles) const;

    void resetAllStats();

    // Component access for tests and examples.
    Interconnect &interconnect() { return *ic_; }
    const LayoutMap &layout() const { return layout_; }
    SmCore &gpuCore(int idx) { return *gpuCores_[idx]; }
    CpuNode &cpuCore(int idx) { return *cpuNodes_[idx]; }
    MemNode &memNode(int idx) { return *memNodes_[idx]; }
    const SmCore &gpuCore(int idx) const { return *gpuCores_[idx]; }
    const CpuNode &cpuCore(int idx) const { return *cpuNodes_[idx]; }
    const MemNode &memNode(int idx) const { return *memNodes_[idx]; }
    const Interconnect &interconnect() const { return *ic_; }
    int gpuCoreCount() const { return static_cast<int>(gpuCores_.size()); }
    int cpuCoreCount() const { return static_cast<int>(cpuNodes_.size()); }
    int memNodeCount() const { return static_cast<int>(memNodes_.size()); }
    const SystemConfig &config() const { return cfg_; }
    Cycle now() const { return now_; }
    GpuCoherence &coherence() { return *coherence_; }

    /**
     * Aggregate MESI directory statistics across the per-memory-node
     * banks (DESIGN.md §13: the directory is banked by home node, one
     * DR_DOMAIN_OWNED bank per MemNode — see MemNode::mesi() for the
     * per-bank view).
     */
    MesiStats mesiStats() const;

    /** Endpoint tick domains: the request network's domains. */
    int
    endpointDomains() const
    {
        return static_cast<int>(endpointDomains_.size());
    }

    /** Cycles elided by the idle-skip fast path since construction. */
    Cycle idleSkippedCycles() const { return skippedCycles_; }

    /**
     * Monotone progress signature: advances whenever any network moves
     * a flit or any core retires an instruction. The watchdog flags a
     * stall when this stops changing for debug.watchdogCycles cycles.
     */
    std::uint64_t progressSignature() const;

    /** The progress watchdog, or nullptr when debug.watchdogCycles==0. */
    ProgressWatchdog *watchdog() { return watchdog_.get(); }

    /**
     * Run every registered invariant sweep once: network flit/credit
     * conservation plus LLC and L1 MSHR leak bounds. Called
     * automatically every debug.sweepCycles in DR_CHECKED builds;
     * callable from any build (tests, post-mortem triage).
     */
    void checkInvariants() const;

  private:
    /** Watchdog observation interval: fine enough to bound detection
     *  latency, coarse enough to keep the signature walk off the
     *  per-cycle path. The idle-skip fast path clamps to the next due
     *  observation so skipping never changes watchdog behaviour. */
    static constexpr Cycle kObserveEvery = 64;

    /** One tick domain's endpoints, each list in index order. */
    struct EndpointDomain
    {
        std::vector<MemNode *> mems;
        std::vector<SmCore *> gpus;
        std::vector<CpuNode *> cpus;
    };

    /**
     * One tick domain's GPU cores that staged oracle queries or CTA
     * refills this cycle (DESIGN.md §13), appended by the domain's
     * worker right after each tick, walked by the serial merge and
     * emptied by the worker's next tick. In index order, like
     * EndpointDomain's.
     */
    struct DR_DOMAIN_OWNED CommitList
    {
        std::vector<SmCore *> gpus;
        DR_DOMAIN_STAMP;
    };

    bool anyRemoteL1Has(int coreIdx, Addr line) const;
    void stepCycle();
    /** Tick domain `d`'s endpoints, in the NoC's compute run. */
    void tickEndpoints(int d, Cycle now) DR_ENDPOINT_PHASE;
    void commitEndpoints();
    Cycle idleSkipTarget(Cycle end) const;

    // Everything here but the commit lists is written only between
    // cycles; tickEndpoints reads the endpoint lists and ticks the
    // endpoints they point to, which carry their own classifications.
    SystemConfig cfg_ DR_SERIAL_ONLY;
    LayoutMap layout_ DR_SERIAL_ONLY;
    std::unique_ptr<Interconnect> ic_ DR_SERIAL_ONLY;
    std::unique_ptr<GpuCoherence> coherence_ DR_SERIAL_ONLY;
    std::unique_ptr<AddressMap> map_ DR_SERIAL_ONLY;
    std::unique_ptr<KernelAccessPattern> kernel_ DR_SERIAL_ONLY;
    std::unique_ptr<CtaScheduler> ctaSched_ DR_SERIAL_ONLY;
    std::unique_ptr<L1Organizer> l1Org_ DR_SERIAL_ONLY;
    std::vector<std::unique_ptr<SmCore>> gpuCores_ DR_SERIAL_ONLY;
    std::vector<std::unique_ptr<CpuNode>> cpuNodes_ DR_SERIAL_ONLY;
    std::vector<std::unique_ptr<MemNode>> memNodes_ DR_SERIAL_ONLY;
    /** The endpoints partitioned over the request network's domains
     *  (attach-router domain, Network::domainOfNode). */
    std::vector<EndpointDomain> endpointDomains_ DR_SERIAL_ONLY;
    /** Per-domain commit lists (DESIGN.md §13). */
    std::vector<CommitList> commit_ DR_DOMAIN_OWNED;
    /** tickEndpoints bound to this system, built once (DESIGN.md §13). */
    Network::DomainWork endpointWork_ DR_SERIAL_ONLY;
    std::unique_ptr<ProgressWatchdog> watchdog_ DR_SERIAL_ONLY;
    Cycle now_ DR_SERIAL_ONLY = 0;
    Cycle skippedCycles_ DR_SERIAL_ONLY = 0;
    /** Next cycle a watchdog observation is due (multiples of
     *  kObserveEvery, matching the historical modulo schedule). */
    Cycle watchdogDue_ DR_SERIAL_ONLY = 0;
    /** Next cycle a checked-build invariant sweep is due. */
    Cycle sweepDue_ DR_SERIAL_ONLY = kNeverCycle;
};

} // namespace dr

#endif // DR_CORE_HETERO_SYSTEM_HPP

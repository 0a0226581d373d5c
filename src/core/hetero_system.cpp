#include "core/hetero_system.hpp"

#include <algorithm>
#include <ostream>

#include "common/invariant.hpp"
#include "common/log.hpp"
#include "cpu/cpu_profile.hpp"
#include "workloads/gpu_benchmarks.hpp"

namespace dr
{

double
RunResults::remoteCopyFraction() const
{
    return l1Misses ? static_cast<double>(missesWithRemoteCopy) /
                          static_cast<double>(l1Misses)
                    : 0.0;
}

double
RunResults::forwardedFraction() const
{
    return l1Misses ? static_cast<double>(delegations) /
                          static_cast<double>(l1Misses)
                    : 0.0;
}

double
RunResults::remoteHitRate() const
{
    const std::uint64_t resolved =
        frqRemoteHits + frqDelayedHits + frqRemoteMisses;
    return resolved ? static_cast<double>(frqRemoteHits + frqDelayedHits) /
                          static_cast<double>(resolved)
                    : 0.0;
}

HeteroSystem::HeteroSystem(const SystemConfig &cfg,
                           const std::string &gpuBenchmark,
                           const std::string &cpuBenchmark)
    : HeteroSystem(cfg, makeGpuBenchmark(gpuBenchmark), cpuBenchmark)
{
}

HeteroSystem::HeteroSystem(const SystemConfig &cfg,
                           std::unique_ptr<KernelAccessPattern> kernel,
                           const std::string &cpuBenchmark)
    : cfg_(cfg), layout_(buildLayout(cfg_))
{
    cfg_.validate();
    ic_ = std::make_unique<Interconnect>(cfg_, layout_.types);
    coherence_ = std::make_unique<GpuCoherence>(cfg_.gpu.numCores);
    map_ = std::make_unique<AddressMap>(cfg_.mem.numNodes,
                                        cfg_.mem.lineBytes,
                                        layout_.memNodes, cfg_.mem.mapSeed);
    kernel_ = std::move(kernel);
    ctaSched_ = std::make_unique<CtaScheduler>(cfg_.gpu.ctaSchedule,
                                               kernel_->ctaCount(),
                                               cfg_.gpu.numCores);
    l1Org_ = makeL1Organizer(cfg_.gpu);

    const CpuProfile &profile = cpuProfileFor(cpuBenchmark);

    gpuCores_.reserve(layout_.gpuCores.size());
    for (std::size_t i = 0; i < layout_.gpuCores.size(); ++i) {
        gpuCores_.push_back(std::make_unique<SmCore>(
            layout_.gpuCores[i], static_cast<int>(i), cfg_, *ic_, *map_,
            *coherence_, *ctaSched_, *kernel_, *l1Org_,
            layout_.gpuCores));
        gpuCores_.back()->setLocalityOracle(
            [this](int coreIdx, Addr line) {
                return anyRemoteL1Has(coreIdx, line);
            });
    }
    cpuNodes_.reserve(layout_.cpuCores.size());
    for (std::size_t i = 0; i < layout_.cpuCores.size(); ++i) {
        cpuNodes_.push_back(std::make_unique<CpuNode>(
            layout_.cpuCores[i], static_cast<int>(i), cfg_, profile, *ic_,
            *map_));
    }
    memNodes_.reserve(layout_.memNodes.size());
    for (const NodeId node : layout_.memNodes) {
        memNodes_.push_back(std::make_unique<MemNode>(
            node, cfg_, *ic_, *coherence_, layout_.gpuCores,
            layout_.cpuCores));
    }

    // Endpoint tick domains (DESIGN.md §13): each endpoint joins the
    // request network's domain of its attach router and ticks in that
    // domain's slot of the NoC compute run. Every L1 organization
    // stages its cross-core effects per calling core (DESIGN.md §14),
    // so shared organizations parallelize too.
    const Network &req = ic_->net(NetKind::Request);
    endpointDomains_.resize(static_cast<std::size_t>(req.numDomains()));
    commit_.resize(endpointDomains_.size());
    for (std::size_t d = 0; d < commit_.size(); ++d)
        DR_STAMP_SET_OWNER(commit_[d], d);
    auto join = [&](auto &endpoint) {
        const int d = req.domainOfNode(endpoint.nodeId());
        endpoint.setDomain(d);
        return d;
    };
    for (auto &m : memNodes_)
        endpointDomains_[join(*m)].mems.push_back(m.get());
    for (auto &g : gpuCores_) {
        const int d = join(*g);
        endpointDomains_[d].gpus.push_back(g.get());
        // The L1 organization's per-core staged banks carry the core's
        // domain as their writer-stamp owner.
        l1Org_->setCoreDomain(g->coreIdx(), d);
    }
    for (auto &c : cpuNodes_)
        endpointDomains_[join(*c)].cpus.push_back(c.get());
    // GPU cores are listed in ascending node id (finalize) and domains
    // are contiguous ascending node ranges, so the per-domain GPU lists,
    // concatenated over ascending domains, are the cores in index
    // order; commitEndpoints relies on it.
    if constexpr (checkedBuild()) {
        [[maybe_unused]] std::size_t i = 0;
        for (const EndpointDomain &p : endpointDomains_)
            for ([[maybe_unused]] const SmCore *g : p.gpus)
                DR_ASSERT(g == gpuCores_[i++].get());
    }
    endpointWork_ = [this](int d, Cycle now) { tickEndpoints(d, now); };

    if (cfg_.debug.sweepCycles > 0)
        sweepDue_ = cfg_.debug.sweepCycles;

    if (cfg_.debug.watchdogCycles > 0) {
        WatchdogParams wp;
        wp.stallCycles = cfg_.debug.watchdogCycles;
        wp.abortOnStall = cfg_.debug.watchdogAbort;
        watchdog_ = std::make_unique<ProgressWatchdog>(*ic_, wp);
        watchdog_->setExtraDump([this](std::ostream &os) {
            os << "endpoint state:\n";
            for (const auto &mem : memNodes_) {
                os << "  mem node " << mem->nodeId() << ": "
                   << mem->llc().mshrUsed() << " LLC MSHRs in use, oldest "
                   << mem->llc().mshrOldestAge(now_) << " cycles\n";
            }
            for (const auto &gpu : gpuCores_) {
                os << "  gpu core " << gpu->coreIdx() << " (node "
                   << gpu->nodeId() << "): FRQ " << gpu->frqOccupancy()
                   << " entries, oldest MSHR "
                   << gpu->mshrOldestAge(now_) << " cycles\n";
            }
        });
    }
}

HeteroSystem::~HeteroSystem() = default;

bool
HeteroSystem::anyRemoteL1Has(int coreIdx, Addr line) const
{
    // Reads every other core's L1 tags, which are mid-mutation during
    // the endpoint compute phase — legal only from the serial merge.
    // SmCore stages its miss lines and resolves them through here via
    // resolveOracleQueries() (DESIGN.md §13).
    DR_PHASE_ASSERT_COMMIT();
    for (int c = 0; c < static_cast<int>(gpuCores_.size()); ++c) {
        if (c != coreIdx && l1Org_->contains(c, line))
            return true;
    }
    return false;
}

void
HeteroSystem::advance(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    while (now_ < end) {
        stepCycle();

        // Hybrid event-driven fast path (DESIGN.md §13): after the
        // cycle's merge, if the networks are quiescent and every
        // endpoint watermark proves the next stretch of ticks dead,
        // jump straight to the earliest future event. The jump clamps
        // to the next due watchdog observation and invariant sweep, so
        // both keep their exact historical schedule; onSkip()
        // compensates the per-cycle counters an idle tick would have
        // bumped, keeping skip on/off bit-identical.
        Cycle next = now_ + 1;
        if (cfg_.idleSkip) {
            const Cycle target = idleSkipTarget(end);
            if (target > next) {
                const Cycle skipped = target - next;
                for (auto &mem : memNodes_)
                    mem->onSkip(skipped);
                for (auto &gpu : gpuCores_)
                    gpu->onSkip(skipped);
                for (auto &cpu : cpuNodes_)
                    cpu->onSkip(skipped);
                skippedCycles_ += skipped;
                next = target;
            }
        }
        now_ = next;
    }
}

void
HeteroSystem::stepCycle()
{
    // One compute run ticks each domain's networks and then its
    // endpoints, which inject straight into their own NIs (DESIGN.md
    // §13); the serial merge below commits what they staged.
    ic_->tick(now_, endpointWork_);
    commitEndpoints();

    if (watchdog_ && now_ >= watchdogDue_) {
        watchdog_->observe(now_, progressSignature());
        while (watchdogDue_ <= now_)
            watchdogDue_ += kObserveEvery;
    }

    if constexpr (checkedBuild()) {
        if (cfg_.debug.sweepCycles > 0 && now_ >= sweepDue_) {
            checkInvariants();
            while (sweepDue_ <= now_)
                sweepDue_ += cfg_.debug.sweepCycles;
        }
    }
}

void
HeteroSystem::tickEndpoints(int d, Cycle now)
{
    // Canonical order within a domain mirrors the serial schedule
    // (memory nodes, then GPU cores, then CPU nodes); endpoints in one
    // domain are mutually independent during the compute phase, but
    // keeping the order makes serial and parallel traces line up. A
    // GPU core that staged something joins the commit list, which the
    // merge after this run walks and the next tick empties.
    const EndpointDomain &p = endpointDomains_[d];
    CommitList &staged = commit_[d];
    DR_STAMP_WRITE(staged);
    staged.gpus.clear();
    for (MemNode *m : p.mems)
        m->tick(now);
    for (SmCore *g : p.gpus) {
        g->tick(now);
        if (g->hasStagedEffects())
            staged.gpus.push_back(g);
    }
    for (CpuNode *c : p.cpus)
        c->tick(now);
}

void
HeteroSystem::commitEndpoints()
{
    // Drain the L1 organization's per-core staged effects (slice-port
    // claims, LRU touches, fills, DynEB's phase clock) in ascending
    // core order before anything below reads the tags (DESIGN.md §14).
    l1Org_->commitCycle(now_);

    // Staged cross-endpoint effects, in a fixed order: the locality-
    // oracle queries read every core's L1 before the CTA refills flush
    // any of them, and the refills advance the shared scheduler cursor
    // in core order — the same order the serial schedule used.
    for (const CommitList &c : commit_)
        for (SmCore *gpu : c.gpus)
            gpu->resolveOracleQueries(now_);
    for (const CommitList &c : commit_)
        for (SmCore *gpu : c.gpus)
            gpu->refillCtas(now_);
}

Cycle
HeteroSystem::idleSkipTarget(Cycle end) const
{
    // Quiescence vote: no flit, credit or unassembled packet anywhere
    // in either network. Anything still queued *at* an endpoint (NI
    // ready queues included) is covered by that endpoint's watermark.
    if (!ic_->quiescent())
        return now_;

    Cycle target = end;
    if (watchdog_)
        target = std::min(target, watchdogDue_);
    if constexpr (checkedBuild()) {
        target = std::min(target, sweepDue_);
    }
    target = std::min(target, l1Org_->nextEventCycle(now_));
    for (const auto &mem : memNodes_)
        target = std::min(target, mem->nextEventCycle(now_));
    for (const auto &gpu : gpuCores_)
        target = std::min(target, gpu->nextEventCycle(now_));
    for (const auto &cpu : cpuNodes_)
        target = std::min(target, cpu->nextEventCycle(now_));
    return std::max(target, now_);
}

MesiStats
HeteroSystem::mesiStats() const
{
    MesiStats agg;
    for (const auto &mem : memNodes_) {
        const MesiStats &s = mem->mesi().stats();
        agg.reads += s.reads.value();
        agg.writes += s.writes.value();
        agg.invalidations += s.invalidations.value();
        agg.downgrades += s.downgrades.value();
        agg.writebacks += s.writebacks.value();
    }
    return agg;
}

std::uint64_t
HeteroSystem::progressSignature() const
{
    // Built from monotone counters that resetAllStats() does not touch
    // (network conservation counters) plus instruction counts; any
    // change means the chip did useful work.
    std::uint64_t sig = 0;
    const Network &req = ic_->net(NetKind::Request);
    sig += req.conservedFlitsInjected() + req.conservedFlitsEjected();
    if (!ic_->shared()) {
        const Network &rep = ic_->net(NetKind::Reply);
        sig += rep.conservedFlitsInjected() + rep.conservedFlitsEjected();
    }
    for (const auto &gpu : gpuCores_)
        sig += gpu->stats().instructions.value();
    for (const auto &cpu : cpuNodes_)
        sig += cpu->stats().retired.value();
    return sig;
}

void
HeteroSystem::checkInvariants() const
{
    ic_->checkInvariants();
    l1Org_->auditStamps();
    for (const auto &mem : memNodes_)
        mem->llc().checkMshrLeaks(now_, cfg_.debug.mshrLeakCycles);
    for (const auto &gpu : gpuCores_)
        gpu->checkMshrLeaks(now_, cfg_.debug.mshrLeakCycles);
}

void
HeteroSystem::resetAllStats()
{
    ic_->resetStats();
    for (auto &gpu : gpuCores_)
        gpu->resetStats();
    for (auto &cpu : cpuNodes_)
        cpu->resetStats();
    for (auto &mem : memNodes_)
        mem->resetStats();
}

RunResults
HeteroSystem::collect(Cycle measuredCycles) const
{
    RunResults r;
    r.cycles = measuredCycles;

    std::uint64_t gpuInstr = 0;
    std::uint64_t dataFlits = 0;
    for (const auto &gpu : gpuCores_) {
        const SmCoreStats &s = gpu->stats();
        gpuInstr += s.instructions.value();
        r.l1Misses += s.l1Misses.value();
        r.missesWithRemoteCopy += s.missesWithRemoteCopy.value();
        r.frqRemoteHits += s.frqRemoteHits.value();
        r.frqDelayedHits += s.frqDelayedHits.value();
        r.frqRemoteMisses += s.frqRemoteMisses.value();
        r.probesSent += s.probesSent.value();
        r.probeHits += s.probeHitsServed.value();
        dataFlits +=
            ic_->net(NetKind::Reply).flitsEjectedAt(gpu->nodeId());
    }
    r.gpuIpc = measuredCycles
                   ? static_cast<double>(gpuInstr) /
                         static_cast<double>(measuredCycles)
                   : 0.0;
    r.gpuDataRate =
        measuredCycles && !gpuCores_.empty()
            ? static_cast<double>(dataFlits) /
                  static_cast<double>(measuredCycles) /
                  static_cast<double>(gpuCores_.size())
            : 0.0;

    std::uint64_t gpuLoads = 0;
    for (const auto &gpu : gpuCores_)
        gpuLoads += gpu->stats().loads.value();
    r.gpuL1MissRate =
        gpuLoads ? static_cast<double>(r.l1Misses) /
                       static_cast<double>(gpuLoads)
                 : 0.0;

    double cpuIpcSum = 0.0;
    double cpuLatSum = 0.0;
    int cpuLatCount = 0;
    for (const auto &cpu : cpuNodes_) {
        cpuIpcSum += cpu->ipc(measuredCycles);
        if (cpu->stats().requestLatency.count() > 0) {
            cpuLatSum += cpu->stats().requestLatency.mean();
            ++cpuLatCount;
        }
    }
    r.cpuIpc = cpuNodes_.empty()
                   ? 0.0
                   : cpuIpcSum / static_cast<double>(cpuNodes_.size());
    r.cpuLatency =
        cpuLatCount ? cpuLatSum / static_cast<double>(cpuLatCount) : 0.0;

    double blockSum = 0.0;
    std::uint64_t llcHits = 0, llcReads = 0;
    for (const auto &mem : memNodes_) {
        blockSum += mem->blockingRate();
        r.delegations += mem->stats().delegations.value();
        llcHits += mem->llcStats().hits.value();
        llcReads += mem->llcStats().reads.value() +
                    mem->llcStats().writes.value();
    }
    r.memBlockingRate =
        memNodes_.empty()
            ? 0.0
            : blockSum / static_cast<double>(memNodes_.size());
    r.llcHitRate = llcReads ? static_cast<double>(llcHits) /
                                  static_cast<double>(llcReads)
                            : 0.0;

    r.requestsInjected =
        ic_->net(NetKind::Request).stats().packetsInjected.value();
    r.switchTraversals = ic_->totalSwitchTraversals();
    r.bufferWrites = ic_->totalBufferWrites();
    r.linkTraversals = ic_->totalLinkTraversals();
    return r;
}

RunResults
HeteroSystem::run()
{
    advance(cfg_.warmupCycles);
    resetAllStats();
    advance(cfg_.simCycles);
    return collect(cfg_.simCycles);
}

} // namespace dr

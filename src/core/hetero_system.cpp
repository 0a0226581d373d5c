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

    // Endpoint tick engine (DESIGN.md §13): partition the endpoints
    // over the request network's spatial domains. Every L1
    // organization stages its cross-core effects per calling core
    // (DESIGN.md §14), so shared organizations parallelize too.
    {
        std::vector<MemNode *> mems;
        std::vector<SmCore *> gpus;
        std::vector<CpuNode *> cpus;
        for (auto &m : memNodes_)
            mems.push_back(m.get());
        for (auto &g : gpuCores_)
            gpus.push_back(g.get());
        for (auto &c : cpuNodes_)
            cpus.push_back(c.get());
        engine_ = std::make_unique<EndpointEngine>(
            ic_->net(NetKind::Request), ic_->tickPool(), mems, gpus,
            cpus);
        // The engine assigned each SM its endpoint domain; hand the
        // mapping to the L1 organization so its per-core staged banks
        // carry the right writer-domain stamp owners.
        for (auto &g : gpuCores_)
            l1Org_->setCoreDomain(g->coreIdx(), g->domain());
    }

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
    ic_->tick(now_);
    l1Org_->tick(now_);

    // Endpoint compute phase: every send is staged in the per-node
    // outboxes; the serial merge below drains them in the canonical
    // order (memory nodes, GPU cores, CPU nodes — the historical
    // serial tick order), so pool slots, packet ids and routing RNG
    // draws replay the exact serial sequence at any thread count.
    ic_->beginStaging();
    engine_->tick(now_);
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
HeteroSystem::commitEndpoints()
{
    for (auto &mem : memNodes_)
        ic_->drainOutbox(mem->nodeId(), now_);
    for (auto &gpu : gpuCores_)
        ic_->drainOutbox(gpu->nodeId(), now_);
    for (auto &cpu : cpuNodes_)
        ic_->drainOutbox(cpu->nodeId(), now_);
    ic_->endStaging();
    // Drain the L1 organization's per-core staged effects (slice-port
    // claims, LRU touches, fills, DynEB's phase clock) in ascending
    // core order before anything below reads the tags (DESIGN.md §14).
    l1Org_->commitCycle(now_);

    // Staged cross-endpoint effects, in a fixed order: the locality-
    // oracle queries read every core's L1 before the CTA refills flush
    // any of them, and the refills advance the shared scheduler cursor
    // in core order — the same order the serial schedule used.
    for (auto &gpu : gpuCores_)
        gpu->resolveOracleQueries(now_);
    for (auto &gpu : gpuCores_)
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

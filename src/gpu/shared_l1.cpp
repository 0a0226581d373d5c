#include "gpu/shared_l1.hpp"

#include "common/log.hpp"

namespace dr
{

SharedL1::SharedL1(const GpuConfig &cfg)
    : cfg_(cfg), coresPerCluster_(cfg.dcl1CoresPerCluster),
      slices_(cfg.dcl1Slices)
{
    const int clusters =
        (cfg.numCores + coresPerCluster_ - 1) / coresPerCluster_;
    // Cluster capacity = sum of the private L1s it replaces, divided
    // over address-interleaved slices.
    const int sliceBytes =
        cfg.l1SizeKB * 1024 * coresPerCluster_ / slices_;
    const CacheParams params{sliceBytes, cfg.l1Assoc, cfg.l1LineBytes};
    tags_.resize(clusters);
    portBusyUntil_.resize(clusters);
    clusterEpoch_.assign(static_cast<std::size_t>(clusters), 0);
    for (int c = 0; c < clusters; ++c) {
        for (int s = 0; s < slices_; ++s)
            tags_[c].emplace_back(params);
        portBusyUntil_[c].assign(slices_, 0);
    }
    perCore_.resize(static_cast<std::size_t>(cfg.numCores));
    coreStats_.resize(static_cast<std::size_t>(cfg.numCores));
}

int
SharedL1::sliceOf(Addr lineAddr) const
{
    return static_cast<int>((lineAddr / cfg_.l1LineBytes) % slices_);
}

Addr
SharedL1::sliceLocal(Addr lineAddr) const
{
    // Drop the slice-select bits so each slice indexes its sets with
    // the full remaining address (as a physically sliced cache does).
    return (lineAddr / cfg_.l1LineBytes / slices_) * cfg_.l1LineBytes;
}

L1Result
SharedL1::load(int core, Addr lineAddr, Cycle now)
{
    const int cluster = clusterOf(core);
    const int slice = sliceOf(lineAddr);
    DR_STAMP_WRITE(perCore_[core]);
    if (portBusyUntil_[cluster][slice] > now) {
        // The pipelined slice port is still draining earlier claims:
        // concurrent SMs serialize — the shared-L1 bandwidth loss the
        // paper describes.
        ++coreStats_[core].portConflicts;
        return L1Result::PortBusy;
    }
    perCore_[core].claims.push_back(slotOf(cluster, slice));
    ++coreStats_[core].loads;
    // Probe the frozen pre-cycle tags; the LRU touch is staged and
    // lands at commit, so the hit decision is independent of the
    // in-cycle lookup order across cores.
    if (tags_[cluster][slice].probe(sliceLocal(lineAddr))) {
        ++coreStats_[core].loadHits;
        perCore_[core].ops.push_back(
            {slotOf(cluster, slice), sliceLocal(lineAddr), false});
        return L1Result::Hit;
    }
    return L1Result::Miss;
}

bool
SharedL1::contains(int core, Addr lineAddr) const
{
    const int cluster = clusterOf(core);
    return tags_[cluster][sliceOf(lineAddr)].probe(
               sliceLocal(lineAddr)) != nullptr;
}

void
SharedL1::write(int core, Addr lineAddr, Cycle now)
{
    (void)now;
    const int cluster = clusterOf(core);
    const int slice = sliceOf(lineAddr);
    DR_STAMP_WRITE(perCore_[core]);
    ++coreStats_[core].writes;
    if (tags_[cluster][slice].probe(sliceLocal(lineAddr))) {
        ++coreStats_[core].writeHits;
        perCore_[core].ops.push_back(
            {slotOf(cluster, slice), sliceLocal(lineAddr), false});
    }
}

bool
SharedL1::fill(int core, Addr lineAddr)
{
    const int cluster = clusterOf(core);
    const int slice = sliceOf(lineAddr);
    DR_STAMP_WRITE(perCore_[core]);
    perCore_[core].ops.push_back(
        {slotOf(cluster, slice), sliceLocal(lineAddr), true});
    // Predict the eviction signal from the frozen tags. Staged fills
    // from the same cycle could land in the same set first, so this is
    // an approximation — but a deterministic one (it depends only on
    // the committed pre-cycle state, never on in-cycle ordering).
    return tags_[cluster][slice].wouldEvict(sliceLocal(lineAddr));
}

void
SharedL1::flush(int core)
{
    DR_PHASE_ASSERT_COMMIT();
    // Flushing any member of the cluster invalidates the cluster cache;
    // kernel boundaries are cluster-wide events.
    const int cluster = clusterOf(core);
    ++coreStats_[core].flushes;
    for (auto &slice : tags_[cluster])
        slice.flushAll();
    // Drop staged effects aimed at the flushed cluster so a flush
    // between stage and commit cannot resurrect invalidated lines.
    const int lo = cluster * slices_;
    const int hi = lo + slices_;
    for (CoreStage &stage : perCore_) {
        auto drop = [&](std::int32_t slot) {
            return slot >= lo && slot < hi;
        };
        stage.ops.erase(std::remove_if(stage.ops.begin(), stage.ops.end(),
                                       [&](const CoreStage::Op &op) {
                                           return drop(op.slot);
                                       }),
                        stage.ops.end());
        stage.claims.erase(std::remove_if(stage.claims.begin(),
                                          stage.claims.end(), drop),
                           stage.claims.end());
    }
}

int
SharedL1::hitLatency() const
{
    // Private hit latency plus the intra-cluster interconnect.
    return cfg_.l1HitLatency + 2;
}

const L1OrgStats &
SharedL1::stats() const
{
    return sumL1StatBanks(coreStats_, aggregate_);
}

void
SharedL1::commitCycle(Cycle now)
{
    DR_PHASE_ASSERT_COMMIT();
    // Ascending core order is the canonical endpoint order: the merged
    // tag/port state is bit-identical at any thread count.
    for (CoreStage &stage : perCore_) {
        for (const CoreStage::Op &op : stage.ops) {
            auto &slice = tags_[op.slot / slices_][op.slot % slices_];
            if (op.isFill) {
                slice.insert(op.local, {});
                ++clusterEpoch_[op.slot / slices_];
            } else {
                slice.access(op.local);
            }
        }
        stage.ops.clear();
        for (std::int32_t slot : stage.claims) {
            // k same-cycle claims leave the port busy until now + k:
            // one access served this cycle, k-1 follow-up cycles
            // blocked (1 access/cycle sustained throughput).
            Cycle &busy = portBusyUntil_[slot / slices_][slot % slices_];
            busy = std::max(busy, now) + 1;
        }
        stage.claims.clear();
    }
}

void
SharedL1::setCoreDomain(int core, int domain)
{
    DR_STAMP_SET_OWNER(perCore_[core], domain);
}

void
SharedL1::auditStamps() const
{
    for (const CoreStage &stage : perCore_)
        DR_STAMP_AUDIT(stage);
}

DynEbL1::DynEbL1(const GpuConfig &cfg)
    : cfg_(cfg), shared_(cfg), private_(cfg)
{
    perCore_.resize(static_cast<std::size_t>(cfg.numCores));
}

L1Organizer &
DynEbL1::active()
{
    return phase_ == Phase::ProbePrivate || phase_ == Phase::CommitPrivate
               ? static_cast<L1Organizer &>(private_)
               : static_cast<L1Organizer &>(shared_);
}

const L1Organizer &
DynEbL1::active() const
{
    return phase_ == Phase::ProbePrivate || phase_ == Phase::CommitPrivate
               ? static_cast<const L1Organizer &>(private_)
               : static_cast<const L1Organizer &>(shared_);
}

L1Result
DynEbL1::load(int core, Addr lineAddr, Cycle now)
{
    const L1Result result = active().load(core, lineAddr, now);
    DR_STAMP_WRITE(perCore_[core]);
    ++perCore_[core].loads;
    if (result == L1Result::Hit)
        ++perCore_[core].hits;
    else if (result == L1Result::PortBusy)
        ++perCore_[core].conflicts;
    return result;
}

bool
DynEbL1::contains(int core, Addr lineAddr) const
{
    return active().contains(core, lineAddr);
}

void
DynEbL1::write(int core, Addr lineAddr, Cycle now)
{
    active().write(core, lineAddr, now);
}

bool
DynEbL1::fill(int core, Addr lineAddr)
{
    return active().fill(core, lineAddr);
}

void
DynEbL1::flush(int core)
{
    DR_PHASE_ASSERT_COMMIT();
    // A kernel boundary: invalidate and restart the probing cycle —
    // DynEB decides per kernel.
    shared_.flush(core);
    private_.flush(core);
    phase_ = Phase::ProbeShared;
    // The phase is chip-wide: other cores may switch from their private
    // L1 to a cluster L1 that holds lines.
    ++phaseEpoch_;
    phaseFresh_ = true;
}

int
DynEbL1::hitLatency() const
{
    return active().hitLatency();
}

const L1OrgStats &
DynEbL1::stats() const
{
    return active().stats();
}

void
DynEbL1::clearProbeBanks()
{
    for (ProbeBank &bank : perCore_) {
        bank.loads = 0;
        bank.hits = 0;
        bank.conflicts = 0;
    }
}

void
DynEbL1::maybeAdvancePhase(Cycle now)
{
    if (phaseFresh_) {
        phaseFresh_ = false;
        phaseStart_ = now;
        clearProbeBanks();
        return;
    }
    if (phase_ == Phase::CommitShared || phase_ == Phase::CommitPrivate)
        return;
    if (now - phaseStart_ < probeLen_)
        return;
    std::uint64_t hits = 0;
    std::uint64_t conflicts = 0;
    for (const ProbeBank &bank : perCore_) {
        hits += bank.hits;
        conflicts += bank.conflicts;
    }
    // Effective bandwidth proxy: completed hits minus serialization.
    const std::uint64_t score = hits > conflicts ? hits - conflicts : 0;
    if (phase_ == Phase::ProbeShared) {
        sharedScore_ = score;
        phase_ = Phase::ProbePrivate;
    } else {
        privateScore_ = score;
        phase_ = privateScore_ > sharedScore_ ? Phase::CommitPrivate
                                              : Phase::CommitShared;
    }
    ++phaseEpoch_;
    phaseStart_ = now;
    clearProbeBanks();
}

void
DynEbL1::commitCycle(Cycle now)
{
    DR_PHASE_ASSERT_COMMIT();
    shared_.commitCycle(now);
    private_.commitCycle(now);
    // Phase transitions happen in the serial merge so that contains()
    // and load() agree within a cycle and every lookup of the cycle has
    // been scored before a probe window closes.
    maybeAdvancePhase(now);
}

void
DynEbL1::setCoreDomain(int core, int domain)
{
    shared_.setCoreDomain(core, domain);
    private_.setCoreDomain(core, domain);
    DR_STAMP_SET_OWNER(perCore_[core], domain);
}

void
DynEbL1::auditStamps() const
{
    for (const ProbeBank &bank : perCore_)
        DR_STAMP_AUDIT(bank);
    shared_.auditStamps();
    private_.auditStamps();
}

} // namespace dr

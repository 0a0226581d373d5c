#ifndef DR_GPU_SHARED_L1_HPP
#define DR_GPU_SHARED_L1_HPP

/**
 * @file
 * Shared GPU L1 organizations (Figure 15).
 *
 * SharedL1 models DC-L1 [30]: clusters of `dcl1CoresPerCluster` SMs
 * share one L1 whose capacity equals the sum of the private L1s, split
 * into `dcl1Slices` address-interleaved slices. Sharing removes
 * replication (capacity benefit) but each slice sustains one access per
 * cycle, so bursts to shared data serialize (bandwidth cost) — the
 * effect that slows NN and 2DCON in the paper.
 *
 * DynEbL1 models DynEB [29]: it starts each kernel instance with short
 * probing epochs in shared and private mode, measures achieved load
 * throughput, and commits to the better organization until the next
 * kernel launch.
 *
 * Staged concurrency model (DESIGN.md §14): both organizations are
 * core-confined. During the endpoint compute phase every lookup reads
 * only frozen cross-core state (tags via probe(), the slice-port
 * backlog watermark) and appends its effects — port claims, LRU
 * touches, fills, probe-phase counters — to the calling core's staged
 * bank (stamped DR_DOMAIN_OWNED, like PrivateL1::coreStats_).
 * commitCycle() drains the banks in ascending core order in the serial
 * merge, so the shared tags and the port backlog advance in the
 * canonical endpoint order at any thread count. The slice port is
 * modeled as a pipeline: the k same-cycle claims a slice admits all
 * succeed, and the port then stays busy for k cycles (1 access/cycle
 * sustained throughput), which keeps the admit decision independent of
 * the in-cycle lookup order.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/l1_cache.hpp"

namespace dr
{

/** DC-L1 style statically shared, sliced cluster L1. */
class SharedL1 : public L1Organizer
{
  public:
    explicit SharedL1(const GpuConfig &cfg);

    L1Result load(int core, Addr lineAddr, Cycle now) override
        DR_ENDPOINT_PHASE;
    bool contains(int core, Addr lineAddr) const override;
    void write(int core, Addr lineAddr, Cycle now) override
        DR_ENDPOINT_PHASE;
    bool fill(int core, Addr lineAddr) override DR_ENDPOINT_PHASE;
    void flush(int core) override DR_COMMIT_PHASE;
    int hitLatency() const override;
    const L1OrgStats &stats() const override;
    void tick(Cycle now) override;
    void commitCycle(Cycle now) override DR_COMMIT_PHASE;
    void setCoreDomain(int core, int domain) override;
    void auditStamps() const override;

    int clusters() const { return static_cast<int>(tags_.size()); }
    int clusterOf(int core) const { return core / coresPerCluster_; }
    int sliceOf(Addr lineAddr) const;
    /** Address with the slice-select bits removed (set indexing). */
    Addr sliceLocal(Addr lineAddr) const;

  private:
    struct NoMeta
    {};

    /**
     * One core's staged effects for the cycle in flight. Written only
     * by the endpoint domain that owns the core (stamp-checked in
     * DR_CHECKED builds), drained and cleared by commitCycle().
     */
    struct DR_DOMAIN_OWNED CoreStage
    {
        DR_DOMAIN_STAMP;

        /** A staged tag-array effect against one slice. */
        struct Op
        {
            std::int32_t slot;  //!< cluster * slices + slice
            Addr local;         //!< slice-local line address
            bool isFill;        //!< insert (else LRU touch)
        };

        std::vector<Op> ops;
        /** Slice-port claims (slot per admitted load) this cycle. */
        std::vector<std::int32_t> claims;
    };

    int slotOf(int cluster, int slice) const
    {
        return cluster * slices_ + slice;
    }

    GpuConfig cfg_ DR_SERIAL_ONLY;
    int coresPerCluster_ DR_SERIAL_ONLY;
    int slices_ DR_SERIAL_ONLY;
    /** One tag store per (cluster, slice): probed (frozen) during the
     *  endpoint phase, mutated only by commitCycle()/flush(). */
    std::vector<std::vector<SetAssocCache<NoMeta>>> tags_ DR_SERIAL_ONLY;
    /**
     * Per (cluster, slice): first cycle at which the pipelined port is
     * free again. Advanced only at commit (k claims at cycle N leave
     * the port busy until N + k); lookups compare it against `now`.
     */
    std::vector<std::vector<Cycle>> portBusyUntil_ DR_SERIAL_ONLY;
    std::vector<CoreStage> perCore_ DR_DOMAIN_OWNED;
    /** Stats banked per core, exactly like PrivateL1::coreStats_. */
    std::vector<L1OrgStats> coreStats_ DR_DOMAIN_OWNED;
    mutable L1OrgStats aggregate_ DR_SERIAL_ONLY;
};

/** DynEB: per-kernel dynamic selection between shared and private. */
class DynEbL1 : public L1Organizer
{
  public:
    explicit DynEbL1(const GpuConfig &cfg);

    L1Result load(int core, Addr lineAddr, Cycle now) override
        DR_ENDPOINT_PHASE;
    bool contains(int core, Addr lineAddr) const override;
    void write(int core, Addr lineAddr, Cycle now) override
        DR_ENDPOINT_PHASE;
    bool fill(int core, Addr lineAddr) override DR_ENDPOINT_PHASE;
    void flush(int core) override DR_COMMIT_PHASE;
    int hitLatency() const override;
    const L1OrgStats &stats() const override;
    void tick(Cycle now) override;
    void commitCycle(Cycle now) override DR_COMMIT_PHASE;
    void setCoreDomain(int core, int domain) override;
    void auditStamps() const override;

    /**
     * DynEB's probe-phase clock advances in the serial merge, so an
     * idle skip must not jump a phase boundary: a fresh phase re-bases
     * its window at the next commit, and a probe phase scores itself
     * at the commit of cycle phaseStart_ + probeLen_. Committed phases
     * only change at kernel boundaries (flush), which the endpoint
     * watermarks cover.
     */
    Cycle nextEventCycle(Cycle now) const override
    {
        if (phaseFresh_)
            return now + 1;
        if (phase_ == Phase::CommitShared || phase_ == Phase::CommitPrivate)
            return kNeverCycle;
        return std::max(phaseStart_ + probeLen_, now + 1);
    }

    /** Whether the shared organization is currently active. */
    bool sharedActive() const { return phase_ != Phase::CommitPrivate; }

  private:
    enum class Phase : std::uint8_t
    {
        ProbeShared,
        ProbePrivate,
        CommitShared,
        CommitPrivate,
    };

    /**
     * One core's probe-window counters, banked like the stats so
     * same-cycle loads from different endpoint domains never share a
     * word; maybeAdvancePhase() sums them at scoring time.
     */
    struct DR_DOMAIN_OWNED ProbeBank
    {
        DR_DOMAIN_STAMP;

        std::uint64_t loads = 0;
        std::uint64_t hits = 0;
        std::uint64_t conflicts = 0;
    };

    L1Organizer &active();
    const L1Organizer &active() const;
    void maybeAdvancePhase(Cycle now) DR_COMMIT_PHASE;
    void clearProbeBanks();

    GpuConfig cfg_ DR_SERIAL_ONLY;
    /** Confinement of the nested organizers is their own (both are
     *  core-confined; drlint verifies the delegation chain). */
    SharedL1 shared_ DR_DOMAIN_OWNED;
    PrivateL1 private_ DR_DOMAIN_OWNED;
    /** The phase selector and its clock mutate only in commitCycle()
     *  (and flush), so active() reads frozen state during the phase. */
    Phase phase_ DR_SERIAL_ONLY = Phase::ProbeShared;
    bool phaseFresh_ DR_SERIAL_ONLY = false;
    Cycle phaseStart_ DR_SERIAL_ONLY = 0;
    Cycle probeLen_ DR_SERIAL_ONLY = 2000;
    std::uint64_t sharedScore_ DR_SERIAL_ONLY = 0;  //!< hits - conflicts
    std::uint64_t privateScore_ DR_SERIAL_ONLY = 0;
    std::vector<ProbeBank> perCore_ DR_DOMAIN_OWNED;
};

} // namespace dr

#endif // DR_GPU_SHARED_L1_HPP

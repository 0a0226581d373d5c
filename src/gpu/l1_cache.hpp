#ifndef DR_GPU_L1_CACHE_HPP
#define DR_GPU_L1_CACHE_HPP

/**
 * @file
 * GPU L1 data-cache organizations behind one interface. The baseline is
 * a private write-through, allocate-on-read-miss L1 per SM; DC-L1 [30]
 * shares a sliced L1 across a cluster of SMs (higher effective capacity,
 * serialized slice ports); DynEB [29] switches between the two per
 * kernel based on achieved throughput. Tag state only — no data.
 */

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/ownership.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"

namespace dr
{

/** Outcome of an L1 load lookup. */
enum class L1Result : std::uint8_t
{
    Hit,
    Miss,
    PortBusy,  //!< shared-slice port already used this cycle
};

/** L1 statistics per organization instance. */
struct L1OrgStats
{
    Counter loads;
    Counter loadHits;
    Counter writes;
    Counter writeHits;
    Counter portConflicts;
    Counter flushes;
};

/**
 * Sum per-core stat banks into `aggregate` (cleared first) and return
 * it. Banked organizations keep one L1OrgStats per core so concurrent
 * same-cycle lookups from different endpoint domains never share a
 * counter; every one of them reports through this single helper so the
 * summing cannot drift between organizations.
 */
inline const L1OrgStats &
sumL1StatBanks(const std::vector<L1OrgStats> &banks, L1OrgStats &aggregate)
{
    aggregate = L1OrgStats{};
    for (const L1OrgStats &s : banks) {
        aggregate.loads += s.loads.value();
        aggregate.loadHits += s.loadHits.value();
        aggregate.writes += s.writes.value();
        aggregate.writeHits += s.writeHits.value();
        aggregate.portConflicts += s.portConflicts.value();
        aggregate.flushes += s.flushes.value();
    }
    return aggregate;
}

/**
 * L1 organization interface. `core` is the *GPU core index* (not NoC
 * node id). Lookups are per-cycle operations: shared organizations may
 * return PortBusy, and the caller retries next cycle.
 *
 * Phase contract (DESIGN.md §13/§14): the per-core entry points
 * (load/write/fill/contains) run inside the endpoint compute phase and
 * must confine their writes to state banked by the calling core;
 * cross-core effects (shared tags, slice ports, DynEB's phase clock)
 * are staged per core and drained by commitCycle() in the serial
 * merge, in ascending core order.
 */
class L1Organizer
{
  public:
    virtual ~L1Organizer() = default;

    /** Load lookup (stages the LRU touch on hit). */
    virtual L1Result load(int core, Addr lineAddr,
                          Cycle now) DR_ENDPOINT_PHASE = 0;

    /** Probe without side effects (used for FRQ remote lookups). */
    virtual bool contains(int core, Addr lineAddr) const = 0;

    /** Write-through store: touches the line if present. */
    virtual void write(int core, Addr lineAddr,
                      Cycle now) DR_ENDPOINT_PHASE = 0;

    /** Install a line on fill; true if a valid line is evicted (staged
     *  organizations predict this from the frozen pre-cycle tags). */
    virtual bool fill(int core, Addr lineAddr) DR_ENDPOINT_PHASE = 0;

    /** Kernel-boundary invalidation of a core's L1 (or its cluster). */
    virtual void flush(int core) DR_COMMIT_PHASE = 0;

    /** Extra hit latency of this organization (cluster interconnect). */
    virtual int hitLatency() const = 0;

    virtual const L1OrgStats &stats() const = 0;

    /** Advance per-cycle port bookkeeping (serial, start of cycle). */
    virtual void tick(Cycle now) = 0;

    /**
     * Serial-merge half of the cycle: drain the per-core staged
     * effects (slice-port claims, LRU touches, fills, phase-clock
     * updates) in ascending core order — the canonical endpoint order,
     * independent of the thread count. Organizations with nothing
     * staged inherit the no-op.
     */
    virtual void commitCycle(Cycle now) DR_COMMIT_PHASE { (void)now; }

    /**
     * Partition-time wiring: the endpoint domain that owns `core`'s
     * lookups (assigns writer-domain stamp owners in staged
     * organizations; DR_CHECKED builds panic on a cross-domain write).
     */
    virtual void setCoreDomain(int core, int domain)
    {
        (void)core;
        (void)domain;
    }

    /** DR_CHECKED invariant sweep: audit writer-domain stamps. */
    virtual void auditStamps() const {}

    /**
     * Earliest future cycle at which ticking the organization could
     * change its state without any new lookup arriving (idle-skip
     * watermark, DESIGN.md §13). Stateless-per-cycle organizations
     * never self-advance; DynEB's probe-phase clock does.
     */
    virtual Cycle nextEventCycle(Cycle now) const
    {
        (void)now;
        return kNeverCycle;
    }
};

/** The baseline private L1 per SM. */
class PrivateL1 : public L1Organizer
{
  public:
    PrivateL1(const GpuConfig &cfg);

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

  private:
    struct NoMeta
    {};

    GpuConfig cfg_ DR_SERIAL_ONLY;
    /** One tag store per core: lookups touch only the caller's. */
    std::vector<SetAssocCache<NoMeta>> tags_ DR_DOMAIN_OWNED;
    /**
     * Stats are banked per core so concurrent same-cycle lookups from
     * different endpoint domains never share a counter; stats() sums
     * the banks via sumL1StatBanks (serial reporting path only).
     */
    std::vector<L1OrgStats> coreStats_ DR_DOMAIN_OWNED;
    mutable L1OrgStats aggregate_ DR_SERIAL_ONLY;
};

/** Factory for the configured organization. */
std::unique_ptr<L1Organizer> makeL1Organizer(const GpuConfig &cfg);

} // namespace dr

#endif // DR_GPU_L1_CACHE_HPP

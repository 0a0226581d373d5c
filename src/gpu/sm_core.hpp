#ifndef DR_GPU_SM_CORE_HPP
#define DR_GPU_SM_CORE_HPP

/**
 * @file
 * A GPU streaming multiprocessor modelled at warp granularity: 48 warps
 * per core issue compute instructions and periodically memory accesses
 * drawn from the kernel's access pattern; warps block on outstanding
 * loads (MSHR-tracked), which yields the latency-tolerant,
 * bandwidth-hungry, bursty injection behaviour that clogs the memory
 * nodes. The core also implements the receiver side of Delegated
 * Replies (the Forwarded Request Queue of Figure 8, with remote-over-
 * local priority to avoid deadlock) and the probe protocol of RP [31].
 */

#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coherence/gpu_coherence.hpp"
#include "common/config.hpp"
#include "common/ownership.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "gpu/cta_scheduler.hpp"
#include "gpu/kernel.hpp"
#include "gpu/l1_cache.hpp"
#include "gpu/realistic_probing.hpp"
#include "mem/address_map.hpp"
#include "mem/mshr.hpp"
#include "noc/interconnect.hpp"

namespace dr
{

/** Per-SM statistics. */
struct SmCoreStats
{
    Counter instructions;   //!< issued instructions (compute + memory)
    Counter memAccesses;
    Counter loads;
    Counter stores;
    Counter l1Hits;
    Counter l1Misses;
    Counter mshrMerges;
    Counter llcRequests;    //!< ReadReqs sent to memory nodes (non-DNF)
    Counter dnfRequests;    //!< remote-miss re-sends with DNF set
    Counter repliesReceived;

    // FRQ / Delegated Replies receiver side (Figure 14 numerator).
    Counter frqReceived;
    Counter frqSameBlock;  //!< FRQ arrivals matching a queued entry
                           //!< (paper Section IV: only 4.8%, so no
                           //!< merging hardware is provided)
    Counter frqRemoteHits;
    Counter frqDelayedHits;
    Counter frqRemoteMisses;

    // RP protocol.
    Counter probesSent;
    Counter probeHitsServed;   //!< this core answered a probe with data
    Counter probeNacksServed;
    Counter probeFallbacks;    //!< all probes nacked -> LLC request

    Counter missesWithRemoteCopy;  //!< Fig. 2: miss found in a remote L1

    Counter stallNoMshr;
    Counter stallInject;
    Counter stallPort;
    Counter ctasCompleted;

    Average loadLatency;  //!< issue to wake (cycles)
};

/**
 * One SM core endpoint. Ticked once per cycle by the HeteroSystem.
 *
 * Every mutable member below is state of this one core, so the whole
 * object is DR_DOMAIN_OWNED: tick() runs in the endpoint compute
 * phase, pinned to the domain of the node's attach router, and only
 * that domain's worker may call the mutating entry points. The two
 * cross-core interactions — CTA refill (shared scheduler cursor +
 * kernel-boundary flushes) and the Figure 2 locality oracle (remote
 * L1 reads) — are staged during the compute phase and resolved by
 * commitCycle() in the serial merge (DESIGN.md §13).
 */
class DR_DOMAIN_OWNED SmCore
{
  public:
    SmCore(NodeId nodeId, int coreIdx, const SystemConfig &cfg,
           Interconnect &ic, const AddressMap &map,
           GpuCoherence &coherence, CtaScheduler &ctaSched,
           const KernelAccessPattern &kernel, L1Organizer &l1,
           const std::vector<NodeId> &gpuCoreIds);

    void tick(Cycle now) DR_ENDPOINT_PHASE;

    /** Endpoint compute domain (engine partition time; -1 = any). */
    void setDomain(int domain) { domain_ = domain; }
    int domain() const { return domain_; }

    /**
     * Serial-merge half of the cycle (commit phase): resolve staged
     * locality-oracle queries against the now-stable L1 state, then
     * refill completed CTA slots from the shared scheduler. Called by
     * the HeteroSystem in canonical core order so the scheduler cursor
     * advances exactly as the old serial tick did.
     */
    void resolveOracleQueries(Cycle now) DR_COMMIT_PHASE;
    void refillCtas(Cycle now) DR_COMMIT_PHASE;

    /** Whether this cycle's tick staged oracle queries or CTA refills
     *  for the two calls above. */
    bool
    hasStagedEffects() const
    {
        return !oracleQueries_.empty() || !pendingCtaRefills_.empty();
    }

    /**
     * Earliest future cycle at which ticking this core could have any
     * effect, assuming no new message arrives (idle-skip watermark,
     * DESIGN.md §13): conservative — any queued work or retrying warp
     * means "next cycle", and an all-WaitMem core only wakes on
     * replies, which the quiescence vote plus NI check cover.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** A provably idle SM tick has no per-cycle stat effects. */
    void onSkip(Cycle) {}

    /**
     * Optional oracle for the Figure 2 characterization: queried on
     * each L1 miss with (coreIdx, line); returns whether any *remote*
     * L1 currently holds the line. Invoked only from the serial merge
     * (resolveOracleQueries) — it reads other cores' L1 state, which
     * is mid-mutation during the compute phase.
     */
    void
    setLocalityOracle(std::function<bool(int, Addr)> oracle)
    {
        localityOracle_ = std::move(oracle);
    }

    NodeId nodeId() const { return nodeId_; }
    int coreIdx() const { return coreIdx_; }
    const SmCoreStats &stats() const { return stats_; }
    void resetStats() { stats_ = SmCoreStats{}; }

    /** Instantaneous occupancy diagnostics. */
    int frqOccupancy() const { return static_cast<int>(frq_.size()); }

    /** Age of the longest-outstanding L1 MSHR entry. */
    Cycle mshrOldestAge(Cycle now) const { return mshrs_.oldestAge(now); }

    /** panic() if any MSHR entry has been outstanding beyond `maxAge`. */
    void checkMshrLeaks(Cycle now, Cycle maxAge) const
    {
        mshrs_.checkNoLeaks(now, maxAge, "SM L1");
    }

  private:
    struct Warp
    {
        enum class State : std::uint8_t
        {
            NeedWork,  //!< waiting for a CTA
            Ready,     //!< can issue this cycle
            WaitMem,   //!< blocked on an outstanding load
            Stalled,   //!< structural stall, retry the memory access
        };

        State state = State::NeedWork;
        int slot = 0;
        int cta = -1;
        int warpInCta = 0;
        std::uint32_t instance = 0;
        int accessIdx = 0;
        int computeLeft = 0;
        Cycle readyAt = 0;
        MemAccess pending{};  //!< the access being (re)tried
        bool hasPending = false;
        Cycle issueCycle = 0; //!< when the pending load was first issued
        /**
         * The check this warp's last retry failed (DESIGN.md §13).
         * While retryEpoch_ still equals `stallEpoch` and fewer than
         * `stallNeed` request-network flits are free, a retry fails
         * the same check again, so it only bumps `stallStat`.
         * 0 = nothing recorded (the failure depended on the cycle).
         */
        std::uint64_t stallEpoch = 0;
        Counter SmCoreStats::*stallStat = nullptr;
        int stallNeed = 0;
    };

    /**
     * What a memory access would do, decided from side-effect-free
     * queries only: every check that can fail before the access
     * touches any state is made here, so a stall has no side effects
     * and a memoized stall can be re-derived (DR_CHECKED).
     */
    struct AccessPlan
    {
        enum class Step : std::uint8_t
        {
            Stall,  //!< a check failed: bump `stall`
            Write,  //!< send the write-through store
            Hit,    //!< the line is present: L1 load
            Merge,  //!< join the line's outstanding MSHR entry
            Probe,  //!< RP: allocate an MSHR and probe remote L1s
            Miss,   //!< allocate an MSHR and request the line
        };

        Step step;
        Counter SmCoreStats::*stall = nullptr;
        /** Free request-network flits that would clear the stall;
         *  kNoSpaceHelps when injection space alone cannot. */
        int need = 0;
    };
    static constexpr int kNoSpaceHelps = std::numeric_limits<int>::max();

    struct CtaSlot
    {
        int cta = -1;
        std::uint32_t instance = 0;
        int warpsLeft = 0;
        std::vector<int> warpIds;
    };

    struct ProbeState
    {
        int nacksLeft = 0;
        bool resolved = false;
        Cycle issued = 0;
    };

    void receiveReplies(Cycle now) DR_ENDPOINT_PHASE;
    void receiveRequests(Cycle now) DR_ENDPOINT_PHASE;
    void processFrq(Cycle now) DR_ENDPOINT_PHASE;
    void drainOutbound(Cycle now) DR_ENDPOINT_PHASE;
    void issueWarps(Cycle now) DR_ENDPOINT_PHASE;
    Addr lineOf(const MemAccess &access) const
    {
        return access.addr & ~static_cast<Addr>(cfg_.gpu.l1LineBytes - 1);
    }
    AccessPlan planAccess(const MemAccess &access, Addr line) const;
    /** DR_CHECKED: whether re-planning a memoized stall fails the
     *  same check with the same need. */
    bool replaysStall(const Warp &warp) const;
    bool executeMemAccess(Warp &warp, int warpId, Cycle now)
        DR_ENDPOINT_PHASE;
    /** Whether `flits` fit in this node's request injection buffer
     *  (what Interconnect::canSend checks for a request). */
    bool requestFits(int flits) const
    {
        return ic_.injectFree(nodeId_, NetKind::Request) >= flits;
    }
    /** Set a warp's state, keeping eligible_ in step. */
    void setState(Warp &warp, Warp::State state);
    void wakeTargets(Addr line, Cycle now) DR_ENDPOINT_PHASE;
    void trainPredictor(Addr line, bool remoteHit) DR_ENDPOINT_PHASE;
    void assignCta(CtaSlot &slot, Cycle now) DR_COMMIT_PHASE;
    void finishWarp(Warp &warp, Cycle now) DR_ENDPOINT_PHASE;
    void advanceWarp(Warp &warp, Cycle now, Cycle extraLatency)
        DR_ENDPOINT_PHASE;
    Message makeRequest(MsgType type, Addr line, Cycle now) const;
    bool sendOrQueueReply(const Message &msg, Cycle now)
        DR_ENDPOINT_PHASE;
    bool isMemNode(NodeId node) const;

    NodeId nodeId_;
    int coreIdx_;
    const SystemConfig &cfg_;
    Interconnect &ic_;
    const AddressMap &map_;
    GpuCoherence &coherence_;
    CtaScheduler &ctaSched_;
    const KernelAccessPattern &kernel_;
    L1Organizer &l1_;
    const std::vector<NodeId> &gpuCoreIds_;

    std::vector<Warp> warps_ DR_DOMAIN_OWNED;
    /** Bit w set: warps_[w] is Ready or Stalled, the states
     *  issueWarps acts on (SystemConfig::validate caps warps at 64). */
    std::uint64_t eligible_ DR_DOMAIN_OWNED = 0;
    std::vector<CtaSlot> ctaSlots_ DR_DOMAIN_OWNED;
    std::uint32_t coreInstance_ = 0;
    int greedyWarp_ = 0;

    /**
     * Moves on every event that can change the path of a failed retry
     * other than injection space (DESIGN.md §13): an MSHR allocate or
     * release, an L1 fill, a change to the lines this core sees in a
     * shared L1, outstanding-write changes and sharing-predictor
     * training. Merges and flushes cannot: they only take MSHR target
     * space and L1 lines away. Starts at 1, so a warp's stallEpoch of
     * 0 never matches.
     */
    std::uint64_t retryEpoch_ DR_DOMAIN_OWNED = 1;
    /** l1_.viewEpoch(coreIdx_) when issueWarps last looked. */
    std::uint64_t l1View_ DR_DOMAIN_OWNED = 0;
    const int readReqFlits_;
    const int writeReqFlits_;

    MshrFile mshrs_ DR_DOMAIN_OWNED;
    std::deque<Message> frq_ DR_DOMAIN_OWNED;   //!< Forwarded Request Queue
    std::deque<Message> probeQueue_ DR_DOMAIN_OWNED;  //!< incoming RP probes
    //!< core-to-core data replies
    std::deque<Message> outboundReplies_ DR_DOMAIN_OWNED;
    // drlint-allow(unordered-container): lookup by line only;
    // probe completion is driven by message arrival order.
    std::unordered_map<Addr, ProbeState> probes_ DR_DOMAIN_OWNED;
    //!< lines awaiting LLC re-send
    std::deque<Addr> probeFallbacks_ DR_DOMAIN_OWNED;
    SharingPredictor predictor_ DR_DOMAIN_OWNED;

    int outstandingWrites_ DR_DOMAIN_OWNED = 0;
    bool frqServicedThisTick_ DR_DOMAIN_OWNED = false;
    std::uint64_t nextReqId_ DR_DOMAIN_OWNED;
    /** Reads other cores' L1s: serial-merge only (DESIGN.md §13). */
    std::function<bool(int, Addr)> localityOracle_ DR_SERIAL_ONLY;
    /** L1-miss lines staged for the oracle, resolved at the merge. */
    std::vector<Addr> oracleQueries_ DR_DOMAIN_OWNED;
    /** CTA slots that completed this cycle, refilled at the merge. */
    std::vector<int> pendingCtaRefills_ DR_DOMAIN_OWNED;

    SmCoreStats stats_ DR_DOMAIN_OWNED;
    int domain_ = -1;

    static constexpr int maxOutboundReplies_ = 8;
    static constexpr int maxOutstandingWrites_ = 16;
};

} // namespace dr

#endif // DR_GPU_SM_CORE_HPP

#ifndef DR_NOC_ROUTER_HPP
#define DR_NOC_ROUTER_HPP

/**
 * @file
 * Wormhole virtual-channel router with credit-based flow control and a
 * configurable pipeline depth. The micro-architecture follows the paper's
 * baseline (Section VI): per-input VC buffers, route computation at the
 * head flit, VC allocation, and iSLIP-style separable switch allocation
 * in which CPU-class flits always beat GPU-class flits — the end-to-end
 * CPU priority of the baseline design.
 */

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/ownership.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"
#include "noc/ring_buffer.hpp"

namespace dr
{

/**
 * Services a router needs from its enclosing network: topology-aware
 * routing, flit/credit delivery, and ejection-buffer accounting.
 */
class RouterEnv
{
  public:
    virtual ~RouterEnv() = default;

    /** Output port for the flit's next hop at this router. */
    virtual int routeOutput(int router, const Flit &flit) const
        DR_COMPUTE_PHASE = 0;
    /** VC mask allowed on the channel leaving `router` via `port`. */
    virtual std::uint8_t vcMaskForOutput(int router, int port,
                                         const Flit &flit) const
        DR_COMPUTE_PHASE = 0;
    /** Deliver a flit leaving `router` by output `port` at `when`: into
     *  the peer router's input port, or the attached node's NI. */
    virtual void deliverToRouter(int router, int port, const Flit &flit,
                                 Cycle when) DR_COMPUTE_PHASE = 0;
    /** Free flit slots in a node's ejection buffer. */
    virtual int nodeEjectFree(NodeId node) const DR_COMPUTE_PHASE = 0;
    /** Reserve one ejection slot (called at switch traversal). */
    virtual void nodeEjectReserve(NodeId node) DR_COMPUTE_PHASE = 0;
    /** Return one credit to the feeder of (router, inputPort, vc). */
    virtual void creditToFeeder(int router, int inputPort, int vc,
                                Cycle when) DR_COMPUTE_PHASE = 0;
};

/** Per-router statistics (drive link-utilization and energy figures). */
struct RouterStats
{
    std::uint64_t bufferWrites = 0;   //!< flits written into input VCs
    std::uint64_t switchTraversals = 0;
    std::vector<std::uint64_t> portFlitsSent;  //!< per output port
};

/**
 * Snapshot of one input VC whose head flit is waiting for resources —
 * the unit of the watchdog's blocked-flit dependency chains.
 */
struct BlockedHead
{
    int router = -1;
    int inPort = -1;
    int inVc = -1;
    int outPort = -1;   //!< -1 before route computation
    int outVc = -1;     //!< -1 before VC allocation
    PacketId pkt = 0;
    std::int16_t destRouter = -1;
    int buffered = 0;   //!< flits queued behind (and including) the head
};

/**
 * A single router. The enclosing Network applies every flit and credit
 * due in a cycle (applyFlit/applyCredit), then calls tick() once.
 *
 * The whole object is owned by one spatial domain of the parallel tick
 * engine (DESIGN.md §12): during the parallel phases only that domain's
 * worker may call the mutating entry points (validated by the
 * DR_CHECKED stamp), while serial code between barriers has exclusive
 * access by construction.
 */
class DR_DOMAIN_OWNED Router
{
  public:
    /**
     * `vnPriority` switches the allocators from the legacy two-level
     * CPU>GPU priority to the (class, virtual-network) rank of
     * vnet.hpp; off reproduces the legacy arbitration bit-for-bit.
     */
    Router(int id, int numPorts, int numVcs, int vcDepth, int stages,
           RouterEnv &env,
           const std::vector<std::uint8_t> &portIsLink,
           const std::vector<NodeId> &portNode, bool vnPriority = false);

    /** Write a flit arriving at an input port into its input VC. The
     *  Network calls this on the flit's due cycle, before any tick. */
    void applyFlit(int port, const Flit &flit) DR_COMPUTE_PHASE;

    /** Return one downstream credit to an output VC (due cycle, before
     *  any tick, like applyFlit). */
    void applyCredit(int port, int vc) DR_COMPUTE_PHASE;

    /** One simulation cycle: route computation, VC and switch alloc. */
    void tick(Cycle now) DR_COMPUTE_PHASE;

    /** Record the owning spatial domain (partition time). */
    void setDomain(int domain) { DR_STAMP_SET_OWNER(*this, domain); }

    /** Owning domain id (watchdog attribution; -1 before partition). */
    int domain() const { return drStamp_.owner; }

    /** Writer-domain stamp (phase-discipline audits). */
    const DomainStamp &domainStamp() const { return drStamp_; }

    /**
     * External wake: ejection space at an attached node grew (the
     * endpoint popped a message). Clears the stalled fast path — the
     * only allocation input that can change without a flit or credit
     * arriving at this router.
     */
    void wakeEjectSpace() { quiescent_ = false; }

    /**
     * Serialize switch traversals on an output port: at most one grant
     * every `interval` cycles. Models narrow link classes (interposer
     * channels whose width is a fraction of the on-chiplet channel):
     * each flit occupies the link for `interval` cycles. Interval 1 is
     * the default full-width channel and leaves schedules untouched.
     * Call once at wiring time, before the first tick.
     */
    void setPortSerialization(int port, int interval);

    /** Free downstream credits summed over an output port's VCs. */
    int freeCredits(int port) const;

    /** Flits buffered across all input VCs (occupancy diagnostics). */
    int bufferedFlits() const;

    const RouterStats &stats() const { return stats_; }
    int id() const { return id_; }
    int numPorts() const { return numPorts_; }

    /** Human-readable state dump for debugging stalls. */
    void debugDump(std::ostream &os) const;

    /** Clear statistics without touching router state. */
    void resetStats() { stats_ = RouterStats{}; }

    // --- invariant-checker and watchdog accessors -----------------------

    /** Configured buffer depth per VC (the credit-conservation bound). */
    int vcDepth() const { return vcDepth_; }

    /** Downstream credits currently held for one output VC. */
    int outVcCredits(int port, int vc) const
    {
        return out_[port * numVcs_ + vc].credits;
    }

    /** Flits buffered in one input VC (arrivals still in flight are
     *  the Network's to count). */
    int
    inVcOccupancy(int port, int vc) const
    {
        return static_cast<int>(in_[port * numVcs_ + vc].buf.size());
    }

    /** Whether the router holds no flit (active-set scheduling: idle
     *  routers leave the Network's work list and skip tick() until an
     *  arrival is due). */
    bool idle() const { return bufferedCount_ == 0; }

    /** Input VCs whose head flit is waiting on a downstream resource. */
    std::vector<BlockedHead> blockedHeads() const;

  private:
    friend struct NetworkTestAccess;

    struct InVc
    {
        RingBuffer<Flit> buf;
        std::int16_t outPort = -1;  //!< -1 until the head is routed
        std::int16_t outVc = -1;    //!< -1 until the head holds an output VC
        std::uint8_t rank = 0;      //!< routed head's arbitration rank
        std::uint8_t vcMask = 0;    //!< output VCs the routed head may take
    };

    struct OutVc
    {
        int credits = 0;
        int ownerIn = -1;  //!< encoded input (port * numVcs + vc) or -1
    };

    // The allocation passes are templated on the key-set word count: W
    // = 1 for routers with at most 64 input VCs, where every word loop
    // folds away, and W = 0 for keyWords_ words read at run time.
    // tick() picks the instantiation once per cycle.
    template <int W> void allocate(Cycle now) DR_COMPUTE_PHASE;
    //!< returns whether any head routed
    template <int W> bool routeCompute() DR_COMPUTE_PHASE;
    //!< returns whether any VC allocated
    template <int W> bool vcAllocate() DR_COMPUTE_PHASE;
    //!< returns whether any flit granted
    template <int W> bool switchAllocate(Cycle now) DR_COMPUTE_PHASE;
    bool outVcHasSpace(int port, int vc, NodeId node) const
        DR_COMPUTE_PHASE;

    /** Advance the rotating output start by one port. */
    void
    rotateSaOffset()
    {
        if (++saOffset_ == numPorts_)
            saOffset_ = 0;
    }

    /** Grant `key` toward `outPort`: rotation, throttle and traversal. */
    void grantTraversal(int key, int outPort, Cycle now) DR_COMPUTE_PHASE;

    DR_DOMAIN_STAMP;

    int id_;
    int numPorts_;
    int numVcs_;
    int vcDepth_;
    int stages_;
    bool vnPriority_;
    RouterEnv &env_;

    std::vector<std::uint8_t> portIsLink_;  //!< per port: link vs node/none
    std::vector<NodeId> portNode_;          //!< per port: attached node

    // Input and output VC state is stored flat, indexed by the VC key
    // `port * numVcs + vc` — the same encoding OutVc::ownerIn and the
    // switch-allocation rotation already use.
    std::vector<InVc> in_;                   //!< [port * numVcs + vc]
    std::vector<OutVc> out_;                 //!< [port * numVcs + vc]

    // Sets of input VC keys, one bit per key in keyWords_ 64-bit words
    // (key k is bit k % 64 of word k / 64). The allocation passes
    // iterate set bits instead of scanning every port x VC pair; with a
    // handful of flits in a 5-port router that cuts each pass from
    // dozens of probes to one or two. Ascending key order across words
    // equals the port-major scan order, so arbitration outcomes do not
    // depend on the word count.
    int keyWords_;  //!< words per key set: ceil(ports * VCs / 64)

    int saOffset_ = 0;                 //!< rotating output iteration start
    std::vector<int> rrPtr_;           //!< per output, input rotation
    std::vector<std::uint64_t> saUsed_;  //!< keys of granted input ports
    std::vector<std::uint64_t> saReq_;   //!< [out * keyWords_ + word]

    /**
     * Stalled fast path: the last allocation pass routed, allocated and
     * granted nothing, and no flit/credit has arrived since — every
     * allocation input (buffers, credits, pure routing functions) is
     * unchanged, so the pass is skipped wholesale. Cleared by arrivals
     * and by wakeEjectSpace(); the arbitration rotation still advances
     * exactly as a run of switchAllocate would, keeping schedules
     * bit-identical with the non-skipping kernel.
     */
    bool quiescent_ = false;

    /**
     * Output-port serialization (narrow link classes). `hasThrottle_`
     * gates every hot-path check so the default all-ones configuration
     * pays nothing and keeps legacy schedules bit-identical.
     * `throttledWait_` records that the last allocation pass skipped a
     * throttled output that had requesters — such a pass must not latch
     * `quiescent_`, because the port becoming free again is a pure
     * function of time and would never produce a wake-up event.
     */
    bool hasThrottle_ = false;
    bool throttledWait_ = false;
    std::vector<int> portInterval_;    //!< per output port, cycles/flit
    std::vector<Cycle> portNextFree_;  //!< per output port

    //! The key sets, keyWords_ words each, back to back: input VCs with
    //! buffered flits, heads holding an output port, heads holding an
    //! output VC.
    std::vector<std::uint64_t> keySets_;

    // Activity tracking so idle routers can skip their tick entirely.
    int bufferedCount_ = 0;

    RouterStats stats_;
};

} // namespace dr

#endif // DR_NOC_ROUTER_HPP

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
#include <functional>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/invariant.hpp"
#include "common/ownership.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"

namespace dr
{

/**
 * The topology-aware routing a router asks of its enclosing network,
 * once per head flit it routes. What a hop does beyond that — deliver
 * the flit, return its credit, reserve ejection space — the network
 * does itself from the router's recorded grants (Router::grants()).
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
    PacketHandle slot = invalidPacket;  //!< the head's packet-pool slot
    PacketId pkt = 0;   //!< resolved from `slot` by the Network
    std::int16_t destRouter = -1;
    int buffered = 0;   //!< flits queued behind (and including) the head
};

/**
 * A single router. The enclosing Network applies every flit and credit
 * due in a cycle (applyFlit/applyCredit), calls tick() once, then
 * carries out the switch traversals tick() recorded (grants()).
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
    /**
     * `portEjFree` names, per attach port, the attached node's count of
     * free ejection-buffer flits, which switch allocation reads (null
     * for link and unconnected ports); the owner of the count reserves
     * a slot for every grant to that port.
     */
    Router(int id, int numPorts, int numVcs, int vcDepth, int stages,
           RouterEnv &env,
           const std::vector<std::uint8_t> &portIsLink,
           std::vector<const int *> portEjFree, bool vnPriority = false);

    /** Write a flit arriving at an input port into its input VC. The
     *  Network calls this on the flit's due cycle, before any tick. */
    void
    applyFlit(int port, const Flit &flit) DR_COMPUTE_PHASE
    {
        DR_STAMP_WRITE(*this);
        DR_ASSERT_MSG(flit.vc < numVcs_, "router ", id_,
                      ": arriving flit names VC ", int(flit.vc));
        const int key = port * numVcs_ + flit.vc;
        InVc &ivc = in_[key];
        DR_INVARIANT(ivc.count < vcDepth_, "router ", id_, " port ", port,
                     " vc ", int(flit.vc),
                     " input buffer overrun (upstream sent without "
                     "credit)");
        flits_[ringSlot(key, ivc.head + ivc.count)] = flit;
        ++ivc.count;
        keySets_[key / 64] |= std::uint64_t{1} << key % 64;
        ++stats_.bufferWrites;
        ++bufferedCount_;
        quiescent_ = false;
    }

    /** Return one downstream credit to an output VC (due cycle, before
     *  any tick, like applyFlit). */
    void
    applyCredit(int port, int vc) DR_COMPUTE_PHASE
    {
        DR_STAMP_WRITE(*this);
        // Credit conservation: returns can never push a VC's credit count
        // past the buffer depth (that would be a duplicated credit,
        // letting the upstream router overrun the buffer).
        int &credits = out_[port * numVcs_ + vc].credits;
        DR_INVARIANT(credits < vcDepth_, "router ", id_, " port ", port,
                     " vc ", vc, " credit return exceeds buffer depth ",
                     vcDepth_);
        ++credits;
        quiescent_ = false;
    }

    /** One simulation cycle: route computation, VC and switch alloc. */
    void tick(Cycle now) DR_COMPUTE_PHASE;

    /**
     * One switch traversal of the last tick(): the flit as it leaves by
     * `outPort` (its `vc` already the allocated output VC), and the
     * input VC it left, whose feeder gets the buffer slot back as a
     * credit. The enclosing Network turns each grant into a flit
     * arrival due at flitDue(now) and a credit due at now + 1.
     */
    struct Grant
    {
        Flit flit;
        std::int16_t outPort;
        std::int16_t inPort;
        std::uint8_t inVc;
    };

    /** The switch traversals of the last tick(), in grant order. */
    std::span<const Grant> grants() const { return grants_; }

    /** Cycle a flit granted at `now` reaches the next hop: the
     *  remaining pipeline stages plus one cycle of link latency. */
    Cycle flitDue(Cycle now) const { return now + stages_; }

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

    /** Human-readable state dump for debugging stalls; `packetId`
     *  resolves a buffered flit's slot to its PacketId. */
    void debugDump(std::ostream &os,
                   const std::function<PacketId(PacketHandle)> &packetId)
        const;

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
        return in_[port * numVcs_ + vc].count;
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
        std::uint16_t head = 0;     //!< ring slot of the front flit
        std::uint16_t count = 0;    //!< flits buffered
        std::int16_t port = 0;      //!< the input port (key / numVcs)
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

    /** Index in flits_ of ring position `i` (taken modulo the ring
     *  size) of input VC `key`. */
    std::size_t
    ringSlot(int key, int i) const
    {
        return (static_cast<std::size_t>(key) << ringShift_) +
               static_cast<std::size_t>(i & ringMask_);
    }

    /** Front flit of a non-empty input VC. */
    const Flit &
    front(int key) const
    {
        return flits_[ringSlot(key, in_[key].head)];
    }

    /** Whether output VC `vc` of `port` can take a flit: a downstream
     *  credit on a link, ejection space at an attach port. */
    bool
    outVcHasSpace(int port, int vc) const DR_COMPUTE_PHASE
    {
        if (portIsLink_[port])
            return out_[port * numVcs_ + vc].credits > 0;
        return *portEjFree_[port] > 0;
    }

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
    //! per port: the attached node's free ejection flits (a constant 0
    //! for link and unconnected ports)
    std::vector<const int *> portEjFree_;

    // Input and output VC state is stored flat, indexed by the VC key
    // `port * numVcs + vc` — the same encoding OutVc::ownerIn and the
    // switch-allocation rotation already use.
    std::vector<InVc> in_;                   //!< [port * numVcs + vc]
    std::vector<OutVc> out_;                 //!< [port * numVcs + vc]

    // Every input VC's buffer, as one array of power-of-two rings: VC
    // key k's ring is flits_[k << ringShift_] onward, bit_ceil(vcDepth)
    // slots, one allocation per router instead of one per VC.
    std::vector<Flit> flits_;
    int ringShift_;  //!< log2 of the ring size
    int ringMask_;   //!< ring size - 1

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
    //! Switch-allocation scratch of multi-word routers (one-word
    //! routers keep theirs on the stack): each output's requesters,
    //! then the keys of the input ports granted this pass, keyWords_
    //! words each.
    std::vector<std::uint64_t> saScratch_;
    std::vector<Grant> grants_;          //!< this tick's traversals

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

    /** A tail freed an output VC since the last VC allocation pass. */
    bool vcFreed_ = false;

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

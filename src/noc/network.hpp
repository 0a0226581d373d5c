#ifndef DR_NOC_NETWORK_HPP
#define DR_NOC_NETWORK_HPP

/**
 * @file
 * One physical network: routers, channels, and per-node network
 * interfaces (NIs). NIs have finite injection buffers — the structure
 * whose saturation at the memory nodes constitutes network clogging —
 * and finite ejection buffers, so endpoints that stop consuming exert
 * back-pressure into the network (Figure 3 of the paper).
 */

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/ownership.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/active_set.hpp"
#include "noc/flit.hpp"
#include "noc/packet_pool.hpp"
#include "noc/parallel.hpp"
#include "noc/ring_buffer.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace dr
{

/** Construction parameters for one physical network. */
struct NetworkParams
{
    std::string name = "net";
    int numVcs = 2;
    int vcDepthFlits = 4;
    int routerStages = 4;
    int ejBufferFlits = 18;
    /** Injection buffer capacity per node (flits). */
    std::vector<int> injBufferFlits;
    RoutingKind routing = RoutingKind::DimOrderXY;
    /** Seeds each node's routing stream, (seed, node) -> stream. */
    std::uint64_t seed = 1;
    /**
     * Virtual-network partition of the VCs (noc/vnet.hpp). Empty means
     * uniform: every VN may use every VC (the legacy behaviour).
     */
    VnetLayout layout{};
    /** Arbitrate by (class, VN) rank instead of class alone. */
    bool vnPriority = false;
    /**
     * Worker threads for the parallel tick engine: routers and NIs are
     * partitioned into that many contiguous spatial domains, one thread
     * per domain (DESIGN.md §11). Schedules and statistics are
     * bit-identical for every value by construction. 0 = auto: take
     * DR_NOC_THREADS from the environment, else run single-threaded.
     */
    int threads = 0;
    /**
     * Interposer link class (chiplet meshes). Serialization is the
     * cycles one flit occupies an interposer channel (the channel-width
     * ratio: a half-width interposer link serializes every flit over 2
     * cycles); latency is added to every flit hop and credit return
     * crossing an interposer link. 1/0 leave non-chiplet schedules
     * bit-identical.
     */
    int interposerSerialization = 1;
    int interposerLatency = 0;
};

/** Aggregate network statistics. */
struct NetworkStats
{
    Counter packetsInjected;
    Counter packetsDelivered;
    Counter flitsDelivered;
    Average packetLatency;      //!< NI entry to tail ejection
    Average cpuPacketLatency;
    Average gpuPacketLatency;
    /**
     * Packets delivered in the measurement window but queued before the
     * last resetStats(). Their latency straddles the warmup boundary
     * and is dropped from the latency averages (it would mix warmup
     * queueing into measured samples); this counts the drops.
     */
    Counter warmupStraddlers;
    /**
     * Always 0: Network::inject panics on a message to its own node.
     * Kept because dropping these 8 bytes shifts the heap layout, and
     * drbench's figure_sweep setup_s then reads about +86% through
     * glibc heap trimming (CHANGES.md).
     */
    Counter localDeliveries;

    // --- per virtual network (indexed by VirtualNet) -------------------
    std::array<Counter, numVnets> vnPacketsInjected;
    std::array<Counter, numVnets> vnFlitsDelivered;
    /**
     * Cycles a head-of-line packet could not start sending because no
     * VC in its VN's reserved range was free with a credit.
     */
    std::array<Counter, numVnets> vnInjectionStalls;
    /** Peak flits simultaneously in the fabric, per VN, since reset. */
    std::array<std::uint64_t, numVnets> vnPeakFlits{};

    // --- per link class (chiplet meshes; zero elsewhere) ---------------
    /** Flit hops over interposer-class links. */
    Counter interposerFlits;
    /**
     * Peak flits simultaneously occupying downstream interposer-link
     * buffers (sent over an interposer link, credit not yet returned)
     * since reset — the congestion signal of the narrow link class.
     */
    std::uint64_t interposerPeakFlits = 0;
};

/**
 * A physical network instance. The enclosing Interconnect decides which
 * messages travel on which network and with which VC mask.
 */
class Network : public RouterEnv, public CongestionProbe
{
  public:
    Network(const NetworkParams &params, const Topology &topo);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Free injection-buffer flits at a node. */
    int injectFree(NodeId node) const;

    /** Whether a packet of `flits` flits can enter the injection buffer. */
    bool canInject(NodeId node, int flits) const;

    /**
     * Queue a message for injection on the given virtual network; the
     * packet is confined to the VN's reserved VC range for its whole
     * flight. The three-argument overload classifies the message itself
     * (defaultVnet — raw-kernel users: benches, synthetic traffic).
     * Legal from serial code and from the worker owning msg.src's
     * domain, after that domain's sweep (the endpoint ticks, DESIGN.md
     * §13): everything it touches is the source NI's or its domain's.
     * @pre canInject(msg.src, flits)
     */
    void inject(const Message &msg, int flits, Cycle now, VirtualNet vn);
    void inject(const Message &msg, int flits, Cycle now)
    {
        inject(msg, flits, now, defaultVnet(msg));
    }

    /** Messages fully reassembled at a node, per logical network. */
    bool hasMessage(NodeId node, NetKind kind) const;
    const Message &peekMessage(NodeId node, NetKind kind) const;
    Message popMessage(NodeId node, NetKind kind);

    /** Advance one cycle on this network's own pool (started on first
     *  use; networks an Interconnect drives share its pool instead). */
    void tick(Cycle now);

    /** Extra work for one domain's slot of the compute run (the chip's
     *  endpoints, DESIGN.md §13): called as work(domain, now). */
    using DomainWork = std::function<void(int domain, Cycle now)>;

    /**
     * Advance several physical networks one cycle on one pool (DESIGN.md
     * §11): one run computes every domain of every net, then calls
     * `work` for that domain, then each net's serial merge, in list
     * order, files the cross-domain flits and credits and folds the
     * per-domain scratch into the net's statistics. The
     * nets share no state, so the result equals ticking them one after
     * another. With every net idle only `work` runs (no run at all
     * without it). @pre every net has pool.size() domains
     */
    static void tickAll(TickPool &pool, std::span<Network *const> nets,
                        Cycle now, const DomainWork &work = {});

    // RouterEnv interface. These run on a worker inside the parallel
    // phases (routers call back into their Network), hence the
    // compute-phase classification.
    int routeOutput(int router, const Flit &flit) const override
        DR_COMPUTE_PHASE;
    std::uint8_t vcMaskForOutput(int router, int port,
                                 const Flit &flit) const override
        DR_COMPUTE_PHASE;

    /** Free flit slots in a node's ejection buffer. */
    int nodeEjectFree(NodeId node) const { return nis_[node].ejFree; }

    // CongestionProbe interface
    int freeCredits(int router, int port) const override;

    const NetworkStats &
    stats() const
    {
        DR_PHASE_ASSERT_COMMIT();
        return stats_;
    }

    const Topology &topology() const { return topo_; }

    /** The VC partition this network runs with (uniform if VNs off). */
    const VnetLayout &
    vnetLayout() const
    {
        DR_PHASE_ASSERT_COMMIT();
        return routing_.layout();
    }

    /** Flits of one VN currently inside the fabric. */
    int
    vnFlitsInFabric(VirtualNet vn) const
    {
        DR_PHASE_ASSERT_COMMIT();
        return vnInFabric_[static_cast<int>(vn)];
    }

    /** Flits currently occupying downstream interposer-link buffers. */
    int
    interposerFlitsInFlight() const
    {
        DR_PHASE_ASSERT_COMMIT();
        return ipInFabric_;
    }

    /** Utilization of the node->router injection link over `cycles`. */
    double injectionLinkUtilization(NodeId node, Cycle cycles) const;
    /** Utilization of the router->node ejection link over `cycles`. */
    double ejectionLinkUtilization(NodeId node, Cycle cycles) const;
    /** Reply/data flits ejected at a node (received data rate). */
    std::uint64_t flitsEjectedAt(NodeId node) const;

    /** Flits a node's NI sent on one attach-link VC (fairness tests). */
    std::uint64_t niVcFlitsSent(NodeId node, int vc) const
    {
        return nis_[node].vcFlitsSent[vc];
    }

    /** Total buffered flits in all routers (debug/diagnostics). */
    int routerOccupancy() const;

    // --- correctness toolkit --------------------------------------------
    // Explicit conservation-law checkers. Available in every build type
    // (they only cost when called); DR_CHECKED builds additionally run
    // fine-grained assertions inline on the hot paths. Call between
    // ticks — mid-cycle the laws do not hold.

    /**
     * Flit conservation: every flit handed to a router by an NI is
     * either ejected or still in flight (router buffers or arrival
     * wheels). panic()s on mismatch.
     */
    void checkFlitConservation() const;

    /**
     * Credit conservation, per link and per VC: credits held upstream,
     * flits occupying the downstream buffer, and credit returns in
     * flight always sum to the configured buffer depth. Covers both
     * router-router links and NI attach links, plus ejection-buffer
     * slot accounting. panic()s on a leaked or duplicated credit.
     */
    void checkCreditConservation() const;

    /** Run every conservation checker. */
    void checkAllInvariants() const;

    /** Flits injected into / ejected from routers since construction
     *  (unaffected by resetStats — these feed the conservation law). */
    std::uint64_t
    conservedFlitsInjected() const
    {
        DR_PHASE_ASSERT_COMMIT();
        return conservInjected_;
    }

    std::uint64_t
    conservedFlitsEjected() const
    {
        DR_PHASE_ASSERT_COMMIT();
        return conservEjected_;
    }

    /** Flits currently inside the network fabric. */
    int flitsInFlight() const;

    /** Blocked input-VC heads of one router (watchdog triage), each
     *  with its packet's id. */
    std::vector<BlockedHead> blockedHeads(int router) const;

    /** Spatial domain that owns a router (watchdog attribution). */
    int domainOfRouter(int router) const { return routerDomain_[router]; }

    /** Spatial domain that owns a node's NI. */
    int domainOfNode(NodeId node) const { return nodeDomain_[node]; }

    /** Worker domains the engine runs with (1 = serial engine). */
    int numDomains() const { return numDomains_; }

    /**
     * All-domains quiescence: no NI or router anywhere needs per-cycle
     * service and no flit or credit is in flight. With every endpoint
     * watermark also in the future this proves a stretch of cycles
     * dead, enabling the idle-skip fast path (DESIGN.md §13). Serial-phase read: the vote is only
     * meaningful between ticks.
     */
    bool
    quiescent() const
    {
        for (const Domain &d : domains_)
            if (d.hasWork())
                return false;
        return true;
    }

    /** Audit every writer-domain stamp (DR_CHECKED; no-op otherwise). */
    void checkPhaseStamps() const;

    const std::string &
    name() const
    {
        DR_PHASE_ASSERT_COMMIT();
        return params_.name;
    }

    /** Per-router statistics (switch/port counters). */
    const RouterStats &routerStats(int router) const
    {
        return routers_[router]->stats();
    }

    /** Dump router and NI state for stall debugging. */
    void debugDump(std::ostream &os) const;

    /**
     * Reset all statistics (packet/flit counters, latencies, per-router
     * and per-NI event counts) without touching simulation state. Used
     * at the warmup/measurement boundary.
     */
    void resetStats();

    /** Energy-model inputs. */
    std::uint64_t totalSwitchTraversals() const;
    std::uint64_t totalBufferWrites() const;
    /** Every switch traversal sends its flit over exactly one link (to
     *  a router or an NI), so links traversed = switch traversals. */
    std::uint64_t
    totalLinkTraversals() const
    {
        return totalSwitchTraversals();
    }

  private:
    friend struct NetworkTestAccess;

    /**
     * Per-node network interface. Its attach-link credits and ejected
     * flits arrive through its domain's wheel, so the NI is only swept
     * while it has packets to send or a flit to take on the due cycle.
     * The whole structure is owned by the spatial domain of the node's
     * attach router: the parallel phases (its endpoint's inject and
     * popMessage included) only touch it from that domain's worker
     * (validated by the DR_CHECKED stamp below), and serial code has
     * exclusive access by construction. Its packets live in that
     * domain's pool.
     */
    struct DR_DOMAIN_OWNED Ni
    {
        DR_DOMAIN_STAMP;

        // --- injection side ---
        RingBuffer<PacketHandle> queue[2]; //!< per traffic class (Cpu, Gpu)
        int queuedFlits = 0;
        int capacity = 0;

        /** The packet a VC of the attach link is sending, if busy. */
        struct SendState
        {
            bool busy = false;
            PacketHandle pkt = invalidPacket;
            int sent = 0;  //!< flits sent so far
        };
        std::vector<SendState> vcSend;  //!< per VC of the attach link
        int sendRr = 0;  //!< round-robin start VC for send selection
        std::vector<std::uint64_t> vcFlitsSent;  //!< per VC, for fairness
        std::vector<int> credits;       //!< per VC downstream credits
        std::uint64_t flitsInjected = 0;
        /** Packets injected here: the low bits of their PacketIds. */
        std::uint64_t packetsSent = 0;
        /** This node's routing stream (adaptive routing draws only). */
        Rng routeRng;

        // --- ejection side ---
        int ejFree = 0;
        /**
         * The flit ejected this cycle: the wheel drain puts it here and
         * niEject takes it in the ascending-NI sweep, so delivery
         * records and VN occupancy keep the serial event order. The
         * attach port grants one flit a cycle, so one slot suffices.
         */
        bool ejDue = false;
        Flit ejFlit;
        /** Per VC: slot of the packet being reassembled, or
         *  invalidPacket between packets. */
        std::vector<PacketHandle> assembling;
        std::vector<int> assembledFlits;      //!< per VC
        std::deque<std::pair<Message, int>> ready[2];  //!< per NetKind
        std::uint64_t flitsEjected = 0;
    };

    // --- deterministic parallel tick engine (DESIGN.md §11) -----------

    /**
     * Tail-flit delivery recorded during the parallel phase and
     * replayed serially, in global NI order, by mergeTick(). Keeps the
     * order-sensitive effects — floating-point latency sums, the HARE
     * history EWMA, packet-pool free-list order — bit-identical to the
     * single-threaded schedule.
     */
    struct DeliveredRecord
    {
        PacketHandle slot;
        std::int16_t srcRouter;
        std::int16_t destRouter;
        DimOrder order;
        TrafficClass cls;
        bool straddler;  //!< queued before the last resetStats()
        Cycle latency;
    };

    /**
     * A flit due on cycle `when`, reaching a router input port or a
     * node's ejection slot. Cross-domain arrivals wait in the sender's
     * outgoing list until the merge; every arrival then waits in its
     * receiving domain's wheel until it is due.
     */
    struct Arrival
    {
        Cycle when;
        std::int16_t to;      //!< receiving router, or node if toNi
        std::int16_t port;    //!< receiving router's port (not toNi)
        bool toNi;
        Flit flit;
    };
    static_assert(sizeof(Arrival) <= 32);

    /**
     * One buffer slot freed downstream, returning to its feeder: a
     * router output VC, or an NI's attach-link VC. Credits take the
     * same route as arrivals (wheel, or outgoing list then wheel) in
     * lists of their own, so a credit costs 6 bytes, not a flit.
     */
    struct Credit
    {
        std::int16_t to;      //!< receiving router, or node if toNi
        std::int16_t port;    //!< receiving router's output port
        std::uint8_t vc;
        bool toNi;
    };
    static_assert(sizeof(Credit) <= 8);

    /** A cross-domain credit waiting for the merge, with its due cycle
     *  (the wheel slot it is filed into). */
    struct OutgoingCredit
    {
        Cycle when;
        Credit credit;
    };

    /** One due cycle's share of a domain's wheel. */
    struct WheelSlot
    {
        std::vector<Arrival> flits;
        std::vector<Credit> credits;
    };

    /**
     * One spatial domain: a contiguous range of routers plus the NIs
     * attached to them, ticked by one worker. Everything here is
     * written only by the owning worker during a tick; the scratch
     * counters and delivery records are drained serially, in ascending
     * domain order, by mergeTick() on the main thread.
     */
    struct DR_DOMAIN_OWNED alignas(64) Domain
    {
        DR_DOMAIN_STAMP;

        ActiveSet activeNis;      //!< NIs with pending work (own nodes)
        ActiveSet activeRouters;  //!< routers with pending work (own)
        /** Packets its NIs inject; handles name this pool. */
        PacketPool pool;
        /** Injections since the last merge, by VN. */
        std::array<std::uint64_t, numVnets> vnPacketsInjected{};
        std::uint64_t packetsInjected = 0;
        std::vector<DeliveredRecord> delivered;
        std::uint64_t conservInjected = 0;
        std::uint64_t conservEjected = 0;
        std::uint64_t flitsDelivered = 0;
        std::array<std::uint64_t, numVnets> vnFlitsDelivered{};
        std::array<std::uint64_t, numVnets> vnInjectionStalls{};
        /** This tick's running VN-occupancy delta and its max prefix. */
        std::array<int, numVnets> vnDelta{};
        std::array<int, numVnets> vnMaxPrefix{};
        /** Flit hops over interposer links this tick (chiplet meshes). */
        std::uint64_t interposerFlits = 0;
        /** Interposer-occupancy delta / max prefix (same merge pattern
         *  as vnDelta; all touches are router events, so ascending-
         *  domain composition reconstructs the serial event order). */
        int ipDelta = 0;
        int ipMaxPrefix = 0;
        /**
         * Timing wheel of every flit and credit bound for this domain's
         * routers and NIs, one slot per due cycle modulo its power-of-
         * two size. A cycle drains its slot before anything is pushed,
         * so a size of at least the longest delay (routerStages +
         * interposerLatency) keeps each slot to one due cycle.
         */
        std::vector<WheelSlot> wheel;
        //! flits and credits across all slots
        std::size_t wheelArrivals = 0;
        /** Flits and credits this domain sent to other domains this
         *  tick, each list in send order; mergeTick() files them into
         *  their wheels. */
        std::vector<Arrival> outgoing;
        std::vector<OutgoingCredit> outgoingCredits;
        /** Slots of this pool's delivered packets, in the merge's
         *  global NI order; released at the start of the next compute
         *  run. */
        std::vector<PacketHandle> released;

        /** Anything to sweep: an active NI or router, or an arrival
         *  due (every injection activates its NI). */
        bool
        hasWork() const
        {
            return wheelArrivals > 0 || !activeNis.empty() ||
                   !activeRouters.empty();
        }
    };

    void niInject(Domain &d, Ni &ni, NodeId node, Cycle now)
        DR_COMPUTE_PHASE;
    void niEject(Domain &d, Ni &ni, Cycle now) DR_COMPUTE_PHASE;
    /** Queue an arrival in its receiving domain's wheel. */
    void scheduleArrival(Domain &d, const Arrival &a) DR_COMPUTE_PHASE;
    /** Queue a credit due on `when` in its receiving domain's wheel. */
    void scheduleCredit(Domain &d, Cycle when, const Credit &c)
        DR_COMPUTE_PHASE;
    /** Carry out `router`'s grants of this tick (it lives in domain
     *  `d`, index `self`): each flit to its next hop, each credit to
     *  its feeder, straight into `d`'s wheel or onto its outgoing
     *  lists when the receiver is another domain's. */
    void sendGrants(Domain &d, int self, int router, Cycle now)
        DR_COMPUTE_PHASE;
    /** Sweep one domain's NIs and routers (parallel). */
    void tickDomain(Domain &d, Cycle now) DR_COMPUTE_PHASE;
    /** File the outgoing lists and merge per-domain scratch into
     *  global stats (main thread only). */
    void mergeTick() DR_COMMIT_PHASE;

    const Topology &topo_;
    NetworkParams params_ DR_SERIAL_ONLY;
    RoutingPolicy routing_ DR_SERIAL_ONLY;  //!< HARE EWMA mutates at merge
    std::vector<std::unique_ptr<Router>> routers_ DR_DOMAIN_OWNED;
    std::vector<Ni> nis_ DR_DOMAIN_OWNED;
    NetworkStats stats_ DR_SERIAL_ONLY;
    /** Live per-VN flit occupancy of the fabric (survives resetStats). */
    std::array<int, numVnets> vnInFabric_ DR_SERIAL_ONLY{};
    /** Live flits occupying downstream interposer-link buffers (sent
     *  across, credit not yet returned). Survives resetStats. */
    int ipInFabric_ DR_SERIAL_ONLY = 0;
    //! flits NIs handed to routers
    std::uint64_t conservInjected_ DR_SERIAL_ONLY = 0;
    //! flits NIs drained from routers
    std::uint64_t conservEjected_ DR_SERIAL_ONLY = 0;
    Cycle now_ DR_SERIAL_ONLY = 0;
    //! cycle of the last resetStats()
    Cycle statsResetAt_ DR_SERIAL_ONLY = 0;

    // --- parallel tick engine state -----------------------------------
    int numDomains_ DR_SERIAL_ONLY = 1;
    std::vector<Domain> domains_ DR_DOMAIN_OWNED;
    //! router index -> domain (fixed at construction)
    std::vector<std::int16_t> routerDomain_ DR_SERIAL_ONLY;
    //! node index -> domain (fixed at construction)
    std::vector<std::int16_t> nodeDomain_ DR_SERIAL_ONLY;

    /**
     * Where one router port's flits go and its credits return: the
     * topology's PortConn with the receiving domain resolved, built
     * once so a hop reads one record (DESIGN.md §9).
     */
    struct Hop
    {
        std::int16_t to = -1;      //!< peer router, or node if toNi
        std::int16_t port = -1;    //!< peer router's port (not toNi)
        std::int16_t domain = -1;  //!< receiving domain; -1 unconnected
        bool toNi = false;
        bool interposer = false;
    };
    //! one per (router, port): router r's port p is r * hopStride_ + p
    std::vector<Hop> hops_ DR_SERIAL_ONLY;
    int hopStride_ DR_SERIAL_ONLY = 0;
    std::unique_ptr<TickPool> tickPool_;  //!< standalone tick() only
};

} // namespace dr

#endif // DR_NOC_NETWORK_HPP

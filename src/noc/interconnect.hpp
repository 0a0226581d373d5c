#ifndef DR_NOC_INTERCONNECT_HPP
#define DR_NOC_INTERCONNECT_HPP

/**
 * @file
 * Message-level interface over the physical network(s). The baseline has
 * physically separate request and reply networks; the AVCP configuration
 * (Figure 6) shares one double-width physical network and segregates
 * request and reply traffic onto disjoint VC sets. Both mappings are
 * expressed as virtual-network layouts (noc/vnet.hpp): every message is
 * classified into a VN at send() and confined to that VN's reserved VC
 * range end to end; with `noc.vnets` on, forwarded (delegated) requests
 * and core-to-core replies get their own ranges.
 */

#include <memory>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/ownership.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"

namespace dr
{

/**
 * The chip interconnect. Endpoints send/receive Messages; the
 * interconnect maps them onto networks, VCs and flits.
 */
class Interconnect
{
  public:
    Interconnect(const SystemConfig &cfg,
                 const std::vector<NodeType> &nodeTypes);

    Interconnect(const Interconnect &) = delete;
    Interconnect &operator=(const Interconnect &) = delete;

    /** Flits a message occupies given the configured channel width. */
    int flitsFor(const Message &msg) const;

    /** Whether msg.src can accept the message into its injection buffer. */
    bool canSend(const Message &msg) const;

    /** Queue a message for injection. @pre canSend(msg) */
    void send(const Message &msg, Cycle now);

    /** Free injection space (flits) on the network a message would use. */
    int injectFree(NodeId node, NetKind kind) const;

    // --- endpoint staging (DESIGN.md §13) -----------------------------
    //
    // While the endpoint compute phase runs, sends must not touch
    // network-global state (packet pool, packet ids, routing RNG). In
    // staging mode send() appends to the sender's per-node outbox and
    // reserves the flits; canSend()/injectFree() subtract the node's
    // own reservations, which is exact because injection buffers are
    // per-node and only the owning endpoint sends from its node. The
    // serial merge then drains the outboxes that hold sends, in
    // canonical endpoint order — the same order the old serial tick
    // issued them — reproducing the identical pool-slot / packet-id /
    // routing sequence.

    /** Enter staging mode (before the endpoint compute phase). */
    void beginStaging();

    /** Whether the node has staged a send since its last drain. Read
     *  by the node's own domain worker right after its tick. */
    bool
    hasStaged(NodeId node) const
    {
        return !outbox_[node].pending.empty();
    }

    /** Real-inject one node's staged sends, in issue order (serial). */
    void drainOutbox(NodeId node, Cycle now) DR_COMMIT_PHASE;

    /** Leave staging mode. @pre every outbox has been drained (checked
     *  builds assert it: the merge drains only the listed nodes). */
    void endStaging();

    bool hasMessage(NodeId node, NetKind kind) const;
    const Message &peekMessage(NodeId node, NetKind kind) const;
    Message popMessage(NodeId node, NetKind kind);

    /**
     * Advance both physical networks one cycle on the shared pool;
     * `work` runs in each domain's slot of the compute run, after that
     * domain's network sweeps (Network::tickAll).
     */
    void tick(Cycle now, const Network::DomainWork &work = {});

    /** The chip's one worker pool: every parallel phase of the
     *  networks and the endpoints runs on it (DESIGN.md §11). */
    TickPool &tickPool() { return *pool_; }

    const Topology &topology() const { return topo_; }

    /** The physical network carrying the given traffic kind. */
    Network &net(NetKind kind);
    const Network &net(NetKind kind) const;
    bool shared() const { return shared_; }

    /** Every physical network's all-domains quiescence vote. */
    bool quiescent() const
    {
        return request_->quiescent() && (!reply_ || reply_->quiescent());
    }

    /**
     * Virtual network a message travels on: the central classification
     * (noc/vnet.hpp) applied with this chip's node-type map, so
     * core-to-core replies (delegated remote hits, probe nacks) land on
     * the DelegatedReply VN while memory replies stay on Reply.
     */
    VirtualNet vnetFor(const Message &msg) const
    {
        return classifyMessage(msg,
                               nodeTypes_[msg.src] == NodeType::MemNode);
    }

    /** Reset statistics on all physical networks. */
    void resetStats();

    /**
     * Run the flit- and credit-conservation checkers on every physical
     * network. panic()s on the first violated law. Call between cycles.
     */
    void checkInvariants() const;

    /** Sum of energy-model event counts over all physical networks. */
    std::uint64_t totalSwitchTraversals() const;
    std::uint64_t totalBufferWrites() const;
    /** Equal to totalSwitchTraversals() (Network::totalLinkTraversals). */
    std::uint64_t
    totalLinkTraversals() const
    {
        return totalSwitchTraversals();
    }

  private:
    /**
     * Staged sends of one node. Written only by the endpoint that owns
     * the node (its domain's worker during the compute phase), drained
     * by the serial merge — per-node exclusivity, no locking needed.
     */
    struct DR_DOMAIN_OWNED NodeOutbox
    {
        std::vector<Message> pending;
        int reservedFlits[2] = {0, 0};  //!< per NetKind
    };

    NetKind kindFor(const Message &msg) const
    {
        return onRequestNetwork(msg.type) ? NetKind::Request
                                          : NetKind::Reply;
    }

    /** Flits this node has staged against the given network. */
    int reservedFlits(NodeId node, NetKind kind) const;

    void sendNow(const Message &msg, Cycle now);

    SystemConfig cfg_;
    Topology topo_;
    bool shared_;
    std::vector<NodeType> nodeTypes_;
    std::unique_ptr<Network> request_;
    std::unique_ptr<Network> reply_;  //!< null in shared mode
    std::optional<TickPool> pool_;  //!< engaged once the nets exist
    std::vector<NodeOutbox> outbox_ DR_DOMAIN_OWNED;
    bool staging_ DR_SERIAL_ONLY = false;
};

} // namespace dr

#endif // DR_NOC_INTERCONNECT_HPP

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

    /**
     * Inject a message into its network. Legal from serial code and
     * from the endpoint tick of the sender's domain (DESIGN.md §13):
     * every piece of injection state is the source NI's or its
     * domain's, so a send touches nothing another worker does.
     * @pre canSend(msg)
     */
    void send(const Message &msg, Cycle now);

    /** Free injection space (flits) on the network a message would use. */
    int injectFree(NodeId node, NetKind kind) const;

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
    NetKind kindFor(const Message &msg) const
    {
        return onRequestNetwork(msg.type) ? NetKind::Request
                                          : NetKind::Reply;
    }

    SystemConfig cfg_;
    Topology topo_;
    bool shared_;
    std::vector<NodeType> nodeTypes_;
    std::unique_ptr<Network> request_;
    std::unique_ptr<Network> reply_;  //!< null in shared mode
    std::optional<TickPool> pool_;  //!< engaged once the nets exist
};

} // namespace dr

#endif // DR_NOC_INTERCONNECT_HPP

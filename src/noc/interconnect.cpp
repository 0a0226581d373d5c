#include "noc/interconnect.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "common/log.hpp"

namespace dr
{

namespace
{

/** Per-node injection buffer sizes: memory nodes get the (contended)
 *  memory injection buffer, cores the core buffer. */
std::vector<int>
injBuffers(const SystemConfig &cfg, const std::vector<NodeType> &types)
{
    std::vector<int> caps(types.size());
    for (std::size_t n = 0; n < types.size(); ++n) {
        caps[n] = types[n] == NodeType::MemNode
                      ? cfg.noc.memInjBufferFlits
                      : cfg.noc.coreInjBufferFlits;
    }
    return caps;
}

RoutingKind
effectiveRouting(const SystemConfig &cfg, RoutingKind wanted)
{
    if (cfg.noc.topology == TopologyKind::ChipletMesh) {
        // Gateway-restricted chiplet meshes have grid holes only the
        // hierarchical scheme routes deadlock-free; with every boundary
        // channel present the composed grid is structurally a plain
        // mesh, so any requested mesh routing (or chiplet routing
        // itself) applies unchanged.
        if (cfg.noc.chipletLinksPerEdge > 0)
            return RoutingKind::ChipletHierarchical;
        return wanted;
    }
    // Non-mesh topologies route over deterministic minimal tables.
    if (cfg.noc.topology != TopologyKind::Mesh)
        return RoutingKind::TableMinimal;
    return wanted;
}

/** Build the configured topology (chiplet meshes take extra shape). */
Topology
makeTopology(const SystemConfig &cfg)
{
    if (cfg.noc.topology == TopologyKind::ChipletMesh) {
        return Topology::makeChipletMesh(
            cfg.noc.chipletsX, cfg.noc.chipletsY, cfg.noc.chipletSubW,
            cfg.noc.chipletSubH, cfg.noc.chipletLinksPerEdge);
    }
    return Topology::make(cfg.noc.topology, cfg.nodeCount(),
                          cfg.noc.meshWidth, cfg.noc.meshHeight);
}

} // namespace

Interconnect::Interconnect(const SystemConfig &cfg,
                           const std::vector<NodeType> &nodeTypes)
    : cfg_(cfg), topo_(makeTopology(cfg)),
      shared_(cfg.noc.sharedPhysical), nodeTypes_(nodeTypes)
{
    if (static_cast<int>(nodeTypes.size()) != cfg.nodeCount())
        fatal("interconnect: node type map size mismatch");

    NetworkParams params;
    params.vcDepthFlits = cfg.noc.vcDepthFlits;
    params.routerStages = cfg.noc.routerStages;
    params.vnPriority = cfg.noc.vnets;
    params.threads = cfg.noc.threads;
    params.interposerSerialization =
        cfg.noc.interposerSerializationCycles();
    params.interposerLatency = cfg.noc.interposerLatency;
    // The ejection buffer must be able to complete one maximum-size
    // packet per VC: wormhole reassembly holds partial packets in the
    // buffer, and two interleaved replies that together exceed the
    // capacity would deadlock (neither tail can ever arrive). Size it
    // to whichever is larger: the configured value or VCs x reply size.
    const int maxReplyFlits =
        cfg.flitsFor(MsgType::ReadReply, TrafficClass::Gpu);
    const int vcs = cfg.noc.sharedPhysical
                        ? cfg.noc.sharedReqVcs + cfg.noc.sharedReplyVcs
                        : cfg.noc.vcsPerNet;
    params.ejBufferFlits =
        std::max(cfg.noc.ejBufferFlits, vcs * maxReplyFlits);
    params.injBufferFlits = injBuffers(cfg, nodeTypes);

    if (shared_) {
        params.name = "shared";
        params.numVcs = cfg.noc.sharedReqVcs + cfg.noc.sharedReplyVcs;
        params.layout = sharedNetLayout(cfg.noc);
        params.routing = effectiveRouting(cfg, cfg.noc.requestRouting);
        if (cfg.noc.requestRouting != cfg.noc.replyRouting &&
            cfg.noc.topology == TopologyKind::Mesh) {
            // CDR on a shared network would need per-class orders; the
            // AVCP experiments use a single order, as in the paper.
            params.routing = RoutingKind::DimOrderXY;
        }
        params.seed = cfg.seed * 7919 + 1;
        request_ = std::make_unique<Network>(params, topo_);
    } else {
        params.name = "request";
        params.numVcs = cfg.noc.vcsPerNet;
        params.layout = requestNetLayout(cfg.noc);
        params.routing = effectiveRouting(cfg, cfg.noc.requestRouting);
        params.seed = cfg.seed * 7919 + 1;
        request_ = std::make_unique<Network>(params, topo_);

        params.name = "reply";
        params.layout = replyNetLayout(cfg.noc);
        params.routing = effectiveRouting(cfg, cfg.noc.replyRouting);
        params.seed = cfg.seed * 7919 + 2;
        reply_ = std::make_unique<Network>(params, topo_);
    }
    // Both nets partition the same topology with the same thread count,
    // so one pool sized to the request net's domains drives both.
    DR_ASSERT(!reply_ || reply_->numDomains() == request_->numDomains());
    pool_.emplace(request_->numDomains());
}

int
Interconnect::flitsFor(const Message &msg) const
{
    return cfg_.flitsFor(msg.type, msg.cls);
}

Network &
Interconnect::net(NetKind kind)
{
    if (shared_ || kind == NetKind::Request)
        return *request_;
    return *reply_;
}

const Network &
Interconnect::net(NetKind kind) const
{
    if (shared_ || kind == NetKind::Request)
        return *request_;
    return *reply_;
}

bool
Interconnect::canSend(const Message &msg) const
{
    return net(kindFor(msg)).canInject(msg.src, flitsFor(msg));
}

void
Interconnect::send(const Message &msg, Cycle now)
{
    const NetKind kind = kindFor(msg);
    const VirtualNet vn = vnetFor(msg);
    // The physical-network choice and the VN classification agree by
    // construction: request-side VNs ride the request network, the
    // reply-side VNs the reply network (one network in shared mode).
    DR_ASSERT_MSG((kind == NetKind::Request) ==
                      (vn == VirtualNet::Request ||
                       vn == VirtualNet::ForwardedRequest),
                  "message type ", static_cast<int>(msg.type),
                  " classified onto the wrong network");
    net(kind).inject(msg, flitsFor(msg), now, vn);
}

int
Interconnect::injectFree(NodeId node, NetKind kind) const
{
    return net(kind).injectFree(node);
}

bool
Interconnect::hasMessage(NodeId node, NetKind kind) const
{
    return net(kind).hasMessage(node, kind);
}

const Message &
Interconnect::peekMessage(NodeId node, NetKind kind) const
{
    return net(kind).peekMessage(node, kind);
}

Message
Interconnect::popMessage(NodeId node, NetKind kind)
{
    return net(kind).popMessage(node, kind);
}

void
Interconnect::tick(Cycle now, const Network::DomainWork &work)
{
    Network *const nets[] = {request_.get(), reply_.get()};
    Network::tickAll(*pool_, {nets, reply_ ? 2u : 1u}, now, work);
}

void
Interconnect::resetStats()
{
    request_->resetStats();
    if (reply_)
        reply_->resetStats();
}

void
Interconnect::checkInvariants() const
{
    request_->checkAllInvariants();
    if (reply_)
        reply_->checkAllInvariants();
}

std::uint64_t
Interconnect::totalSwitchTraversals() const
{
    std::uint64_t total = request_->totalSwitchTraversals();
    if (reply_)
        total += reply_->totalSwitchTraversals();
    return total;
}

std::uint64_t
Interconnect::totalBufferWrites() const
{
    std::uint64_t total = request_->totalBufferWrites();
    if (reply_)
        total += reply_->totalBufferWrites();
    return total;
}

} // namespace dr

#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <ostream>
#include <utility>

#include "common/invariant.hpp"
#include "common/log.hpp"

namespace dr
{

namespace
{

/** Resolve a params.threads value: 0 = auto (DR_NOC_THREADS or 1). */
int
resolveThreads(int configured)
{
    if (configured > 0)
        return configured;
    return static_cast<int>(
        envWhole("DR_NOC_THREADS", 1, NocConfig::maxThreads, 1));
}

/** Bits of a PacketId below its source node: the node's injection
 *  sequence number. */
constexpr int kPacketSeqBits = 40;

} // namespace

Network::Network(const NetworkParams &params, const Topology &topo)
    : topo_(topo), params_(params),
      routing_(params.routing, topo, params.numVcs, params.layout)
{
    if (static_cast<int>(params_.injBufferFlits.size()) != topo_.nodes())
        fatal("network ", params_.name, ": injBufferFlits must have one "
              "entry per node");
    if (params_.interposerLatency < 0)
        fatal("network ", params_.name, ": interposerLatency must be >= 0, "
              "got ", params_.interposerLatency);
    if (params_.interposerSerialization < 1)
        fatal("network ", params_.name, ": interposerSerialization must "
              "be >= 1, got ", params_.interposerSerialization);

    // Routers read their attached nodes' ejection space in place; the
    // NIs never move (the Network is neither copied nor moved). Their
    // contents are built after the routers, in the order chip setup has
    // always allocated in: drbench's setup_s reads glibc heap trimming,
    // which moves with that order.
    nis_.resize(topo_.nodes());
    routers_.reserve(topo_.routers());
    for (int r = 0; r < topo_.routers(); ++r) {
        const int radix = topo_.radix(r);
        std::vector<std::uint8_t> isLink(radix, 0);
        std::vector<const int *> ejFree(radix, nullptr);
        for (int p = 0; p < radix; ++p) {
            const auto &conn = topo_.port(r, p);
            isLink[p] = conn.kind == PortConn::Kind::Link;
            if (conn.kind == PortConn::Kind::Node)
                ejFree[p] = &nis_[conn.node].ejFree;
        }
        routers_.push_back(std::make_unique<Router>(
            r, radix, params_.numVcs, params_.vcDepthFlits,
            params_.routerStages, *this, isLink, std::move(ejFree),
            params_.vnPriority));
    }

    // Interposer link class: narrow channels serialize each flit over
    // several cycles. Wired per output port before the first tick; the
    // default interval of 1 leaves the routers on the untouched fast
    // path (hasThrottle_ stays false).
    if (params_.interposerSerialization > 1) {
        for (int r = 0; r < topo_.routers(); ++r) {
            for (int p = 0; p < topo_.radix(r); ++p) {
                if (topo_.isInterposer(r, p))
                    routers_[r]->setPortSerialization(
                        p, params_.interposerSerialization);
            }
        }
    }

    for (NodeId n = 0; n < topo_.nodes(); ++n) {
        Ni &ni = nis_[n];
        ni.capacity = params_.injBufferFlits[n];
        ni.vcSend.resize(params_.numVcs);
        ni.vcFlitsSent.assign(params_.numVcs, 0);
        ni.credits.assign(params_.numVcs, params_.vcDepthFlits);
        ni.ejFree = params_.ejBufferFlits;
        ni.assembling.assign(params_.numVcs, invalidPacket);
        ni.assembledFlits.assign(params_.numVcs, 0);
        // Queued packets are bounded by the injection buffer (every
        // packet is at least one flit), so the queues never grow.
        ni.queue[0].reserve(static_cast<std::size_t>(ni.capacity));
        ni.queue[1].reserve(static_cast<std::size_t>(ni.capacity));
        // One stream per node, seeded from (network seed, node): a
        // draw depends on the node's own packet order only, not on
        // which domain's worker injects or when the others do.
        ni.routeRng = Rng(params_.seed * 0x9e3779b97f4a7c15ull +
                          static_cast<std::uint64_t>(n));
    }

    // --- spatial-domain partition (DESIGN.md §11) ----------------------
    // Contiguous, balanced router ranges; a node lives in its attach
    // router's domain, so every NI<->router attach link and every
    // router<->ejection interaction stays domain-local. Node attach
    // order is monotone in every built-in topology, which makes the
    // node ranges contiguous too — the serial merge depends on that to
    // replay delivery events in global NI order, so a topology that
    // breaks monotonicity panics here.
    numDomains_ = std::min(resolveThreads(params_.threads),
                           topo_.routers());
    routerDomain_.resize(static_cast<std::size_t>(topo_.routers()));
    if (topo_.kind() == TopologyKind::ChipletMesh) {
        // Chiplet-aligned partition: domain boundaries snap to whole
        // chiplet rows, so an interposer row-crossing is the only kind
        // of cross-domain link and every chiplet is owned by exactly
        // one domain. Blocks (chiplet rows) are assigned to domains
        // with the same balanced formula as routers below — contiguous
        // and monotone in the router index, so the monotone-attach
        // check keeps passing.
        const int blocks = topo_.chipletsY();
        numDomains_ = std::min(numDomains_, blocks);
        for (int r = 0; r < topo_.routers(); ++r) {
            const int block = topo_.yOf(r) / topo_.chipletSubH();
            routerDomain_[r] = static_cast<std::int16_t>(
                (static_cast<long>(block) * numDomains_) / blocks);
        }
    } else {
        for (int r = 0; r < topo_.routers(); ++r) {
            routerDomain_[r] = static_cast<std::int16_t>(
                (static_cast<long>(r) * numDomains_) / topo_.routers());
        }
    }
    nodeDomain_.resize(static_cast<std::size_t>(topo_.nodes()));
    for (NodeId n = 0; n < topo_.nodes(); ++n) {
        nodeDomain_[n] = routerDomain_[topo_.attachRouter(n)];
        if (n > 0 && nodeDomain_[n] < nodeDomain_[n - 1])
            panic("network ", params_.name, ": node ", n,
                  " attaches in domain ", int(nodeDomain_[n]),
                  " below node ", n - 1, "'s domain ",
                  int(nodeDomain_[n - 1]),
                  " (node attach order must follow router order)");
    }

    // The longest arrival delay is a flit hop over an interposer link:
    // routerStages + interposerLatency cycles. A cycle drains its slot
    // before anything is pushed, so that many slots never hold
    // arrivals of two cycles in one slot.
    const std::size_t wheelSlots = std::bit_ceil(
        static_cast<std::size_t>(params_.routerStages) +
        static_cast<std::size_t>(params_.interposerLatency));
    domains_.resize(static_cast<std::size_t>(numDomains_));
    for (int i = 0; i < numDomains_; ++i) {
        Domain &d = domains_[i];
        d.activeNis = ActiveSet(topo_.nodes());
        d.activeRouters = ActiveSet(topo_.routers());
        d.pool = PacketPool(i);
        d.wheel.resize(wheelSlots);
    }

    // Writer-domain stamps: record each structure's owning domain so the
    // DR_CHECKED phase checks can validate every compute-phase write.
    for (int r = 0; r < topo_.routers(); ++r)
        routers_[r]->setDomain(routerDomain_[r]);
    for (NodeId n = 0; n < topo_.nodes(); ++n)
        DR_STAMP_SET_OWNER(nis_[n], nodeDomain_[n]);
    for (int d = 0; d < numDomains_; ++d)
        DR_STAMP_SET_OWNER(domains_[d], d);

    for (int r = 0; r < topo_.routers(); ++r)
        hopStride_ = std::max(hopStride_, topo_.radix(r));
    hops_.resize(static_cast<std::size_t>(topo_.routers()) * hopStride_);
    for (int r = 0; r < topo_.routers(); ++r) {
        for (int p = 0; p < topo_.radix(r); ++p) {
            const PortConn &conn = topo_.port(r, p);
            Hop h;
            if (conn.kind == PortConn::Kind::Node) {
                h.to = static_cast<std::int16_t>(conn.node);
                h.toNi = true;
                h.domain = nodeDomain_[conn.node];
            } else if (conn.kind == PortConn::Kind::Link) {
                h.to = conn.peerRouter;
                h.port = conn.peerPort;
                h.domain = routerDomain_[conn.peerRouter];
                h.interposer = conn.interposer;
            }
            hops_[r * hopStride_ + p] = h;
        }
    }
}

int
Network::injectFree(NodeId node) const
{
    const Ni &ni = nis_[node];
    return ni.capacity - ni.queuedFlits;
}

bool
Network::canInject(NodeId node, int flits) const
{
    return injectFree(node) >= flits;
}

void
Network::inject(const Message &msg, int flits, Cycle now, VirtualNet vn)
{
    phase::assertPhaseDomain(nodeDomain_[msg.src], "inject");
    // No endpoint sends to itself: requests go to memory nodes,
    // delegations and probes to other cores, replies to the requester.
    if (msg.src == msg.dst)
        panic("network ", params_.name, ": node ", msg.src,
              " injects a message to itself");
    Domain &d = domains_[nodeDomain_[msg.src]];
    DR_STAMP_WRITE(d);
    const int clsIdx = msg.cls == TrafficClass::Cpu ? 0 : 1;
    ++d.packetsInjected;
    ++d.vnPacketsInjected[static_cast<int>(vn)];

    Ni &ni = nis_[msg.src];
    DR_STAMP_WRITE(ni);
    if (ni.capacity - ni.queuedFlits < flits)
        panic("network ", params_.name, ": inject() without canInject()");
    const PacketHandle handle = d.pool.alloc();
    Packet &pkt = d.pool[handle];
    pkt.msg = msg;
    pkt.id = static_cast<PacketId>(msg.src) << kPacketSeqBits |
             ++ni.packetsSent;
    pkt.flits = flits;
    pkt.srcRouter = static_cast<std::int16_t>(topo_.attachRouter(msg.src));
    pkt.destRouter = static_cast<std::int16_t>(topo_.attachRouter(msg.dst));
    pkt.destPort = static_cast<std::int16_t>(topo_.attachPort(msg.dst));
    pkt.cls = msg.cls;
    pkt.vnet = vn;
    pkt.order = routing_.chooseOrder(pkt.srcRouter, pkt.destRouter, *this,
                                     ni.routeRng);
    pkt.vcMask = routing_.packetMask(pkt.order, vn);
    if (!pkt.vcMask)
        panic("network ", params_.name, ": empty VC mask at injection");
    // VN isolation starts here: the packet's mask is carved from its
    // VN's reserved range, and every downstream mask (router VC
    // allocation, escape escalation) only ever intersects it.
    DR_ASSERT_MSG((pkt.vcMask & ~routing_.layout().mask(vn)) == 0,
                  "network ", params_.name,
                  ": packet mask escapes its virtual network");
    pkt.queuedAt = now;
    pkt.injectedAt = 0;  // slot is recycled; set when the head flit leaves

    ni.queuedFlits += flits;
    ni.queue[clsIdx].push_back(handle);
    d.activeNis.add(msg.src);
}

bool
Network::hasMessage(NodeId node, NetKind kind) const
{
    return !nis_[node].ready[static_cast<int>(kind)].empty();
}

const Message &
Network::peekMessage(NodeId node, NetKind kind) const
{
    return nis_[node].ready[static_cast<int>(kind)].front().first;
}

Message
Network::popMessage(NodeId node, NetKind kind)
{
    // Legal from serial code (exclusive between barriers) and from the
    // endpoint compute phase when the caller is the worker owning this
    // node's domain (DESIGN.md §13): the pop touches only the node's
    // own NI and its attach router, both owned by that same domain.
    phase::assertPhaseDomain(nodeDomain_[node], "popMessage");
    Ni &ni = nis_[node];
    DR_STAMP_WRITE(ni);
    auto &queue = ni.ready[static_cast<int>(kind)];
    if (queue.empty())
        panic("popMessage on empty queue");
    Message msg = queue.front().first;
    const int freedSlots = queue.front().second;
    ni.ejFree += freedSlots;
    queue.pop_front();
    // Ejection space is the one allocation input that changes without a
    // flit or credit arriving at the attach router: wake its stalled
    // fast path so flits blocked on ejection re-arbitrate.
    if (freedSlots > 0)
        routers_[topo_.attachRouter(node)]->wakeEjectSpace();
    return msg;
}

void
Network::niInject(Domain &d, Ni &ni, NodeId node, Cycle now)
{
    DR_STAMP_WRITE(ni);
    const int attachRouter = topo_.attachRouter(node);
    const int attachPort = topo_.attachPort(node);

    // Pick a VC with an in-flight packet, a pending flit, and a credit;
    // lowest (class, VN) arbitration rank wins — CPU-class packets
    // first (Figure 4: the scheduler prioritizes CPU replies inside the
    // injection buffer), then (vnPriority mode) downstream virtual
    // networks before upstream ones. Among equal-rank sends the scan
    // starts at a per-NI round-robin pointer — a fixed starting index
    // would let the lowest-index VC monopolize the attach link and
    // starve packets mid-flight on higher VCs under saturation.
    const int vcs = params_.numVcs;
    int sendVc = -1;
    int sendRank = 0;
    bool sendCpu = false;
    for (int i = 0, v = ni.sendRr; i < vcs; ++i, v = v + 1 == vcs ? 0 : v + 1) {
        const auto &ss = ni.vcSend[v];
        if (!ss.busy || ni.credits[v] <= 0)
            continue;
        const Packet &p = d.pool[ss.pkt];
        const int rank = arbRank(p.cls, p.vnet, params_.vnPriority);
        if (sendVc < 0 || rank < sendRank) {
            sendVc = v;
            sendRank = rank;
            sendCpu = p.cls == TrafficClass::Cpu;
        }
    }

    // Try to start a new packet on a free VC. CPU packets may start (and
    // thus preempt the link) even while a GPU packet is mid-flight on
    // another VC; GPU packets only start when nothing else can send.
    if (sendVc < 0 || !sendCpu) {
        // VCs a new packet could take: idle, with a credit.
        unsigned freeVcs = 0;
        for (int v = 0; v < vcs; ++v) {
            freeVcs |= static_cast<unsigned>(!ni.vcSend[v].busy &&
                                             ni.credits[v] > 0)
                       << v;
        }
        const bool gpuMayStart = sendVc < 0;
        for (int clsIdx = 0; clsIdx < 2; ++clsIdx) {
            if (clsIdx == 1 && !gpuMayStart)
                break;
            if (ni.queue[clsIdx].empty())
                continue;
            const Packet &pkt = d.pool[ni.queue[clsIdx].front()];
            Flit probe;  // only routing fields matter for the mask hook
            probe.destRouter = pkt.destRouter;
            probe.order = pkt.order;
            probe.vnet = pkt.vnet;
            const unsigned fit =
                freeVcs ? freeVcs & pkt.vcMask &
                              routing_.vcMaskForLink(attachRouter, probe)
                        : 0;
            if (!fit) {
                // Head-of-line packet found no free, credited VC in its
                // virtual network's range this cycle.
                ++d.vnInjectionStalls[static_cast<int>(pkt.vnet)];
                continue;
            }
            sendVc = std::countr_zero(fit);
            ni.vcSend[sendVc] = {true, ni.queue[clsIdx].front(), 0};
            ni.queue[clsIdx].pop_front();
            break;
        }
    }

    if (sendVc < 0)
        return;

    auto &ss = ni.vcSend[sendVc];
    Packet &pkt = d.pool[ss.pkt];
    Flit flit;
    flit.slot = ss.pkt;
    flit.tag = packetTag(pkt.id);
    flit.head = ss.sent == 0;
    flit.tail = ss.sent == pkt.flits - 1;
    flit.vc = static_cast<std::uint8_t>(sendVc);
    flit.destRouter = pkt.destRouter;
    flit.destPort = pkt.destPort;
    flit.cls = pkt.cls;
    flit.order = pkt.order;
    flit.vcMask = pkt.vcMask;
    flit.vnet = pkt.vnet;

    if (flit.head)
        pkt.injectedAt = now;
    DR_INVARIANT(ni.credits[sendVc] > 0, "network ", params_.name,
                 ": NI injection without a credit on VC ", sendVc);
    // Per-VN occupancy moves through domain-local (delta, max-prefix)
    // scratch; mergeTick() composes the domains in ascending order,
    // which reconstructs the exact sequential running occupancy and its
    // peak. Only increments can set a new peak, so tracking the max on
    // the increment side alone is exact.
    const int vnIdx = static_cast<int>(flit.vnet);
    if (++d.vnDelta[vnIdx] > d.vnMaxPrefix[vnIdx])
        d.vnMaxPrefix[vnIdx] = d.vnDelta[vnIdx];
    scheduleArrival(d, {now + 1, static_cast<std::int16_t>(attachRouter),
                        static_cast<std::int16_t>(attachPort), false, flit});
    --ni.credits[sendVc];
    --ni.queuedFlits;
    DR_ASSERT(ni.queuedFlits >= 0);
    ++ni.flitsInjected;
    ++ni.vcFlitsSent[sendVc];
    ++d.conservInjected;
    ++ss.sent;
    if (flit.tail)
        ss.busy = false;
    ni.sendRr = sendVc + 1 == vcs ? 0 : sendVc + 1;
}

void
Network::niEject(Domain &d, Ni &ni, Cycle now)
{
    DR_STAMP_WRITE(ni);
    if (!ni.ejDue)
        return;
    ni.ejDue = false;
    const Flit &flit = ni.ejFlit;
    ++ni.flitsEjected;
    ++d.conservEjected;
    ++d.flitsDelivered;
    ++d.vnFlitsDelivered[static_cast<int>(flit.vnet)];
    --d.vnDelta[static_cast<int>(flit.vnet)];

    // A packet's slot names it while any of its flits is in flight: it
    // is released only after the tail ejects.
    const int v = flit.vc;
    if (flit.head) {
        ni.assembling[v] = flit.slot;
        ni.assembledFlits[v] = 0;
    }
    if (ni.assembling[v] != flit.slot)
        panic("network ", params_.name, ": interleaved packets on one "
              "ejection VC");
    ++ni.assembledFlits[v];
    if (!flit.tail)
        return;

    // The packet's slot is in its source domain's pool, which may be
    // allocating right now; a live slot never moves (noc/packet_pool.hpp).
    // The tag catches a flit whose slot went to another packet.
    const int owner = PacketPool::ownerOf(flit.slot);
    if (owner >= numDomains_ || !domains_[owner].pool.isLive(flit.slot) ||
        packetTag(domains_[owner].pool[flit.slot].id) != flit.tag)
        panic("network ", params_.name, ": unknown packet ejected");
    const Packet &pkt = domains_[owner].pool[flit.slot];
    if (ni.assembledFlits[v] != pkt.flits)
        panic("network ", params_.name, ": flit count mismatch at "
              "reassembly");

    // The order-sensitive completion effects — floating-point latency
    // sampling, the HARE history update — and the packet-pool release
    // (which must not run while the source domain allocates) are
    // recorded here and replayed by mergeTick() in global NI order, so they
    // happen in exactly the sequential schedule's order no matter which
    // worker ran this NI. A packet queued before the warmup/measurement
    // boundary straddles both phases; its latency is dropped from the
    // averages at merge time and counted in warmupStraddlers instead.
    const Cycle latency = now - pkt.queuedAt;
    d.delivered.push_back({flit.slot, pkt.srcRouter, pkt.destRouter,
                           pkt.order, pkt.cls,
                           pkt.queuedAt < statsResetAt_, latency});

    const int kindIdx = onRequestNetwork(pkt.msg.type) ? 0 : 1;
    ni.ready[kindIdx].push_back({pkt.msg, pkt.flits});
    // The completed packet's ejection slots are now accounted against
    // the ready-queue entry (returned by popMessage).
    ni.assembledFlits[v] = 0;
    ni.assembling[v] = invalidPacket;
}

void
Network::tick(Cycle now)
{
    if (!tickPool_)
        tickPool_ = std::make_unique<TickPool>(numDomains_);
    Network *const self = this;
    tickAll(*tickPool_, {&self, 1}, now);
}

void
Network::tickAll(TickPool &pool, std::span<Network *const> nets, Cycle now,
                 const DomainWork &work)
{
    DR_PHASE_ASSERT_COMMIT();
    // Compute → merge cycle (DESIGN.md §11). One parallel run ticks
    // every domain's NIs and routers: all inter-entity effects are
    // future-timestamped, so it reads only previous-cycle state, and
    // cross-domain flits/credits go onto the sending domain's outgoing
    // list instead of into the receiver's wheel. The serial merge then
    // files them and replays the order-sensitive completion effects,
    // so the result is bit-identical to noc.threads=1 by construction.
    //
    // Quiescence vote: with every domain's active sets empty, nothing in
    // any net can change this cycle — skip the sweeps and the merge (and
    // the pool, when there is no extra work either). A net idle beside a
    // busy one is swept as a no-op.
    bool idle = true;
    for (Network *net : nets) {
        DR_ASSERT(net->numDomains_ == pool.size());
        // Wheel slots are due cycles modulo the wheel size: a tick that
        // skipped or repeated a cycle would apply arrivals on the wrong
        // one.
        std::size_t pending = 0;
        for (const Domain &d : net->domains_)
            pending += d.wheelArrivals;
        if (pending > 0 && now != net->now_ + 1)
            panic("network ", net->params_.name, ": tick(", now,
                  ") does not follow tick(", net->now_, ") with ",
                  pending, " arrivals in flight");
        net->now_ = now;
        idle = idle && net->quiescent();
    }
    if (idle && !work)
        return;

    // `work` follows its domain's sweeps in the same run: it may touch
    // only state that domain owns, which the sweeps have finished with,
    // and nothing the merges below write.
    pool.run([&](int d) {
        phase::ComputeScope cs(d);
        DR_PHASE_ASSERT_COMPUTE();
        for (Network *net : nets) {
            Domain &dom = net->domains_[d];
            // Slots of the packets the last merge saw delivered go back
            // to this domain's pool, in that merge's order, before
            // anything in this run can allocate.
            DR_STAMP_WRITE(dom);
            for (const PacketHandle slot : dom.released)
                dom.pool.release(slot);
            dom.released.clear();
            if (!idle)
                net->tickDomain(dom, now);
        }
        if (work)
            work(d, now);
    });
    // A net that was idle is merged only if `work` injected into it.
    for (Network *net : nets) {
        if (!idle || !net->quiescent())
            net->mergeTick();
    }
}

void
Network::tickDomain(Domain &d, Cycle now)
{
    DR_STAMP_WRITE(d);
    // Apply this cycle's arrivals before any NI or router ticks. Every
    // arrival was scheduled at least one cycle ahead, so nothing this
    // cycle can observe the difference from applying them inside each
    // router's or NI's tick; and a slot holds at most one flit and one
    // credit per (router, port) and per NI, so the order within it
    // changes no state. A router or NI whose only work is an arrival in
    // flight stays out of the active set until the arrival is due. An
    // NI credit needs no sweep (a credit alone sends nothing); an
    // ejected flit waits in the NI's slot for the ascending-NI sweep.
    WheelSlot &due = d.wheel[now & (d.wheel.size() - 1)];
    for (const Credit &c : due.credits) {
        if (c.toNi) {
            Ni &ni = nis_[c.to];
            DR_STAMP_WRITE(ni);
            ++ni.credits[c.vc];
            continue;
        }
        Router &router = *routers_[c.to];
        router.applyCredit(c.port, c.vc);
        d.activeRouters.add(c.to);
    }
    for (const Arrival &a : due.flits) {
        DR_ASSERT(a.when == now);
        if (a.toNi) {
            Ni &ni = nis_[a.to];
            DR_STAMP_WRITE(ni);
            DR_ASSERT_MSG(!ni.ejDue, "network ", params_.name, ": NI",
                          a.to, " ejects two flits on cycle ", now);
            ni.ejDue = true;
            ni.ejFlit = a.flit;
            d.activeNis.add(a.to);
            continue;
        }
        Router &router = *routers_[a.to];
        router.applyFlit(a.port, a.flit);
        d.activeRouters.add(a.to);
    }
    d.wheelArrivals -= due.flits.size() + due.credits.size();
    due.flits.clear();
    due.credits.clear();

    // Active-set scheduling: only NIs and routers holding work are
    // visited; everything else is skipped outright. Members re-register
    // through the delivery hooks and the wheel drain, and sweep order is
    // ascending-index — identical to the old tick-everything loop, on
    // which the skipped entities were no-ops.
    d.activeNis.sweep([&](int n) {
        Ni &ni = nis_[n];
        const NodeId node = static_cast<NodeId>(n);
        niEject(d, ni, now);
        niInject(d, ni, node, now);
        return ni.queuedFlits > 0;
    });
    const int self = static_cast<int>(&d - domains_.data());
    d.activeRouters.sweep([&](int r) {
        Router &router = *routers_[r];
        router.tick(now);
        sendGrants(d, self, r, now);
        return !router.idle();
    });
}

void
Network::sendGrants(Domain &d, int self, int router, Cycle now)
{
    DR_STAMP_WRITE(d);
    // Same-domain flits and credits go straight into the wheel (they
    // are future-timestamped, so the receiver cannot consume them this
    // cycle either way); cross-domain ones wait in this domain's
    // outgoing lists for the serial merge. Attach links never cross a
    // domain boundary: an NI lives in its router's domain.
    const Router &r = *routers_[router];
    const Hop *hops = &hops_[static_cast<std::size_t>(router) * hopStride_];
    const Cycle latency = static_cast<Cycle>(params_.interposerLatency);
    for (const Router::Grant &g : r.grants()) {
        // The flit, to the peer router's input port or into the attached
        // node's ejection buffer, whose slot it takes now.
        const Hop &out = hops[g.outPort];
        Arrival a{r.flitDue(now), out.to, out.port, out.toNi, g.flit};
        if (out.toNi) {
            Ni &ni = nis_[out.to];
            DR_STAMP_WRITE(ni);
            if (ni.ejFree <= 0)
                panic("ejection reservation without space");
            --ni.ejFree;
        }
        if (out.interposer) {
            // Interposer link class: extra hop latency, plus occupancy
            // tracking (a flit occupies the downstream interposer buffer
            // until its credit crosses back). Both touches are events of
            // the sending router's tick, so the per-domain
            // delta/max-prefix merge reconstructs the serial event order.
            ++d.interposerFlits;
            if (++d.ipDelta > d.ipMaxPrefix)
                d.ipMaxPrefix = d.ipDelta;
            a.when += latency;
        }
        if (out.domain == self)
            scheduleArrival(d, a);
        else
            d.outgoing.push_back(a);

        // The credit for the freed input slot, to whoever feeds that
        // port. Crossing the interposer back takes the same added
        // latency and ends the flit's interposer occupancy.
        const Hop &in = hops[g.inPort];
        if (in.domain < 0)
            panic("credit to unconnected port");
        Cycle when = now + 1;
        if (in.interposer) {
            --d.ipDelta;
            when += latency;
        }
        const Credit c{in.to, in.port, g.inVc, in.toNi};
        if (in.domain == self)
            scheduleCredit(d, when, c);
        else
            d.outgoingCredits.push_back({when, c});
    }
}

void
Network::scheduleArrival(Domain &d, const Arrival &a)
{
    DR_STAMP_WRITE(d);
    DR_ASSERT(a.when > now_ && a.when - now_ <= d.wheel.size());
    d.wheel[a.when & (d.wheel.size() - 1)].flits.push_back(a);
    ++d.wheelArrivals;
}

void
Network::scheduleCredit(Domain &d, Cycle when, const Credit &c)
{
    DR_STAMP_WRITE(d);
    DR_ASSERT(when > now_ && when - now_ <= d.wheel.size());
    d.wheel[when & (d.wheel.size() - 1)].credits.push_back(c);
    ++d.wheelArrivals;
}

void
Network::mergeTick()
{
    DR_PHASE_ASSERT_COMMIT();
    // Ascending domain order == ascending NI order (contiguous node
    // ranges), so the replay below is the exact sequential event order.
    for (Domain &d : domains_) {
        // File this domain's cross-domain arrivals. Each is due at
        // now + 1 or later and the merge ends before the next compute
        // run, so each is in its wheel before it is due. Ascending
        // producers, each in send order, fill every slot in one fixed
        // order after its same-domain pushes (the order within a slot
        // changes no state, see tickDomain).
        for (const Arrival &a : d.outgoing) {
            const int to = a.toNi ? nodeDomain_[a.to] : routerDomain_[a.to];
            scheduleArrival(domains_[to], a);
        }
        d.outgoing.clear();
        for (const OutgoingCredit &oc : d.outgoingCredits) {
            const Credit &c = oc.credit;
            const int to = c.toNi ? nodeDomain_[c.to] : routerDomain_[c.to];
            scheduleCredit(domains_[to], oc.when, c);
        }
        d.outgoingCredits.clear();
        stats_.packetsInjected += d.packetsInjected;
        d.packetsInjected = 0;
        conservInjected_ += d.conservInjected;
        d.conservInjected = 0;
        conservEjected_ += d.conservEjected;
        d.conservEjected = 0;
        stats_.flitsDelivered += d.flitsDelivered;
        d.flitsDelivered = 0;
        for (int vn = 0; vn < numVnets; ++vn) {
            stats_.vnPacketsInjected[vn] += d.vnPacketsInjected[vn];
            d.vnPacketsInjected[vn] = 0;
            stats_.vnFlitsDelivered[vn] += d.vnFlitsDelivered[vn];
            d.vnFlitsDelivered[vn] = 0;
            stats_.vnInjectionStalls[vn] += d.vnInjectionStalls[vn];
            d.vnInjectionStalls[vn] = 0;
            // Parallel prefix-max: the peak within this domain's event
            // block is the running occupancy entering the block plus
            // the block's max prefix delta.
            if (d.vnMaxPrefix[vn] > 0) {
                const auto candidate = static_cast<std::uint64_t>(
                    vnInFabric_[vn] + d.vnMaxPrefix[vn]);
                if (candidate > stats_.vnPeakFlits[vn])
                    stats_.vnPeakFlits[vn] = candidate;
            }
            vnInFabric_[vn] += d.vnDelta[vn];
            d.vnDelta[vn] = 0;
            d.vnMaxPrefix[vn] = 0;
            DR_ASSERT(vnInFabric_[vn] >= 0);
        }
        stats_.interposerFlits += d.interposerFlits;
        d.interposerFlits = 0;
        if (d.ipMaxPrefix > 0) {
            const auto candidate =
                static_cast<std::uint64_t>(ipInFabric_ + d.ipMaxPrefix);
            if (candidate > stats_.interposerPeakFlits)
                stats_.interposerPeakFlits = candidate;
        }
        ipInFabric_ += d.ipDelta;
        d.ipDelta = 0;
        d.ipMaxPrefix = 0;
        DR_ASSERT(ipInFabric_ >= 0);
        for (const DeliveredRecord &rec : d.delivered) {
            if (rec.straddler) {
                ++stats_.warmupStraddlers;
            } else {
                stats_.packetLatency.sample(
                    static_cast<double>(rec.latency));
                if (rec.cls == TrafficClass::Cpu)
                    stats_.cpuPacketLatency.sample(
                        static_cast<double>(rec.latency));
                else
                    stats_.gpuPacketLatency.sample(
                        static_cast<double>(rec.latency));
            }
            routing_.onDelivered(rec.srcRouter, rec.destRouter, rec.order,
                                 rec.latency);
            ++stats_.packetsDelivered;
            domains_[PacketPool::ownerOf(rec.slot)].released.push_back(
                rec.slot);
        }
        d.delivered.clear();
    }
}

int
Network::routeOutput(int router, const Flit &flit) const
{
    return routing_.outputPort(router, flit);
}

std::uint8_t
Network::vcMaskForOutput(int router, int port, const Flit &flit) const
{
    const auto &conn = topo_.port(router, port);
    if (conn.kind == PortConn::Kind::Link)
        return routing_.vcMaskForLink(conn.peerRouter, flit);
    return 0xff;
}

int
Network::freeCredits(int router, int port) const
{
    return routers_[router]->freeCredits(port);
}

double
Network::injectionLinkUtilization(NodeId node, Cycle cycles) const
{
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(nis_[node].flitsInjected) /
           static_cast<double>(cycles);
}

double
Network::ejectionLinkUtilization(NodeId node, Cycle cycles) const
{
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(nis_[node].flitsEjected) /
           static_cast<double>(cycles);
}

std::uint64_t
Network::flitsEjectedAt(NodeId node) const
{
    return nis_[node].flitsEjected;
}

void
Network::checkPhaseStamps() const
{
    for (const Ni &ni : nis_)
        DR_STAMP_AUDIT(ni);
    for (const Domain &d : domains_)
        DR_STAMP_AUDIT(d);
    for (const auto &router : routers_)
        phase::auditStamp(router->domainStamp(), "router");
}

void
Network::resetStats()
{
    DR_PHASE_ASSERT_COMMIT();
    stats_ = NetworkStats{};
    // Peak per-VN occupancy restarts from the live occupancy, not from
    // zero — flits already in flight still occupy their VN's buffers.
    for (int vn = 0; vn < numVnets; ++vn)
        stats_.vnPeakFlits[vn] = static_cast<std::uint64_t>(
            std::max(vnInFabric_[vn], 0));
    stats_.interposerPeakFlits =
        static_cast<std::uint64_t>(std::max(ipInFabric_, 0));
    // Record the boundary: packets queued before this cycle must not
    // contribute latency samples to the fresh measurement window.
    statsResetAt_ = now_;
    // Injections since the last merge belong to the old window.
    for (Domain &d : domains_) {
        d.packetsInjected = 0;
        d.vnPacketsInjected = {};
    }
    for (auto &router : routers_)
        router->resetStats();
    for (auto &ni : nis_) {
        ni.flitsInjected = 0;
        ni.flitsEjected = 0;
    }
}

void
Network::debugDump(std::ostream &os) const
{
    DR_PHASE_ASSERT_COMMIT();
    const auto packetId = [this](PacketHandle slot) {
        return domains_[PacketPool::ownerOf(slot)].pool[slot].id;
    };
    for (const auto &router : routers_) {
        if (router->bufferedFlits() > 0)
            router->debugDump(os, packetId);
    }
    for (NodeId n = 0; n < static_cast<NodeId>(nis_.size()); ++n) {
        const Ni &ni = nis_[n];
        if (ni.queuedFlits == 0 && ni.ejFree == params_.ejBufferFlits)
            continue;
        os << "NI" << n << " queuedFlits=" << ni.queuedFlits
           << " ejFree=" << ni.ejFree << " credits:";
        for (int v = 0; v < params_.numVcs; ++v)
            os << " " << ni.credits[v] << (ni.vcSend[v].busy ? "B" : "-");
        os << " readyReq=" << ni.ready[0].size() << " readyRep="
           << ni.ready[1].size() << "\n";
    }
}

int
Network::routerOccupancy() const
{
    int total = 0;
    for (const auto &router : routers_)
        total += router->bufferedFlits();
    return total;
}

std::uint64_t
Network::totalSwitchTraversals() const
{
    std::uint64_t total = 0;
    for (const auto &router : routers_)
        total += router->stats().switchTraversals;
    return total;
}

std::uint64_t
Network::totalBufferWrites() const
{
    std::uint64_t total = 0;
    for (const auto &router : routers_)
        total += router->stats().bufferWrites;
    return total;
}

std::vector<BlockedHead>
Network::blockedHeads(int router) const
{
    std::vector<BlockedHead> heads = routers_[router]->blockedHeads();
    for (BlockedHead &head : heads)
        head.pkt = domains_[PacketPool::ownerOf(head.slot)].pool[head.slot].id;
    return heads;
}

int
Network::flitsInFlight() const
{
    int total = 0;
    for (const auto &router : routers_)
        total += router->bufferedFlits();
    for (const Domain &d : domains_) {
        for (const WheelSlot &slot : d.wheel)
            total += static_cast<int>(slot.flits.size());
    }
    return total;
}

void
Network::checkFlitConservation() const
{
    DR_PHASE_ASSERT_COMMIT();
    const std::uint64_t inFlight =
        static_cast<std::uint64_t>(flitsInFlight());
    if (conservInjected_ != conservEjected_ + inFlight) {
        panic("network ", params_.name, ": flit conservation violated: ",
              conservInjected_, " injected != ", conservEjected_,
              " ejected + ", inFlight, " in flight");
    }
}

void
Network::checkCreditConservation() const
{
    DR_PHASE_ASSERT_COMMIT();
    const int depth = params_.vcDepthFlits;
    const int vcs = params_.numVcs;

    // Arrivals still in the wheels: per (router, port, VC), flits bound
    // for an input VC and credits bound for an output VC; per (node,
    // VC), credits bound for an NI; per node, flits bound for ejection.
    std::vector<int> firstKey(static_cast<std::size_t>(topo_.routers()) + 1);
    for (int r = 0; r < topo_.routers(); ++r)
        firstKey[r + 1] = firstKey[r] + topo_.radix(r) * vcs;
    std::vector<int> flitsDue(firstKey.back()), creditsDue(firstKey.back());
    std::vector<int> niCreditsDue(nis_.size() * vcs), ejectionsDue(nis_.size());
    for (const Domain &d : domains_) {
        for (const WheelSlot &slot : d.wheel) {
            for (const Arrival &a : slot.flits) {
                if (a.toNi)
                    ++ejectionsDue[a.to];
                else
                    ++flitsDue[firstKey[a.to] + a.port * vcs + a.flit.vc];
            }
            for (const Credit &c : slot.credits) {
                if (c.toNi)
                    ++niCreditsDue[c.to * vcs + c.vc];
                else
                    ++creditsDue[firstKey[c.to] + c.port * vcs + c.vc];
            }
        }
    }

    // Router-to-router links: credits held upstream + flits occupying
    // (or in flight toward) the downstream buffer + credit returns in
    // flight must equal the buffer depth.
    for (int r = 0; r < topo_.routers(); ++r) {
        for (int p = 0; p < topo_.radix(r); ++p) {
            const auto &conn = topo_.port(r, p);
            if (conn.kind != PortConn::Kind::Link)
                continue;
            for (int v = 0; v < vcs; ++v) {
                const int held = routers_[r]->outVcCredits(p, v);
                const int downstream =
                    routers_[conn.peerRouter]->inVcOccupancy(conn.peerPort,
                                                             v) +
                    flitsDue[firstKey[conn.peerRouter] +
                             conn.peerPort * vcs + v];
                const int returning = creditsDue[firstKey[r] + p * vcs + v];
                if (held + downstream + returning != depth) {
                    panic("network ", params_.name,
                          ": credit conservation violated on link R", r,
                          " port ", p, " vc ", v, ": ", held, " held + ",
                          downstream, " downstream + ", returning,
                          " returning != depth ", depth);
                }
                if (held < 0 || held > depth) {
                    panic("network ", params_.name, ": R", r, " port ", p,
                          " vc ", v, " credit count ", held,
                          " outside [0, ", depth, "]");
                }
            }
        }
    }

    // NI attach links (node -> router) and ejection-slot accounting.
    for (NodeId n = 0; n < static_cast<NodeId>(nis_.size()); ++n) {
        const Ni &ni = nis_[n];
        const int attachRouter = topo_.attachRouter(n);
        const int attachPort = topo_.attachPort(n);
        for (int v = 0; v < vcs; ++v) {
            const int held = ni.credits[v];
            const int downstream =
                routers_[attachRouter]->inVcOccupancy(attachPort, v) +
                flitsDue[firstKey[attachRouter] + attachPort * vcs + v];
            const int returning = niCreditsDue[n * vcs + v];
            if (held + downstream + returning != depth) {
                panic("network ", params_.name,
                      ": credit conservation violated on NI", n, " vc ", v,
                      ": ", held, " held + ", downstream, " downstream + ",
                      returning, " returning != depth ", depth);
            }
        }

        int staged = ejectionsDue[n];
        for (int v = 0; v < params_.numVcs; ++v)
            staged += ni.assembledFlits[v];
        for (const auto &kind : ni.ready) {
            for (const auto &entry : kind)
                staged += entry.second;
        }
        if (params_.ejBufferFlits - ni.ejFree != staged) {
            panic("network ", params_.name, ": NI", n,
                  " ejection-slot accounting violated: capacity ",
                  params_.ejBufferFlits, " - free ", ni.ejFree,
                  " != staged ", staged);
        }
    }
}

void
Network::checkAllInvariants() const
{
    checkFlitConservation();
    checkCreditConservation();
    checkPhaseStamps();
}

} // namespace dr

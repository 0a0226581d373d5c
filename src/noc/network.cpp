#include "noc/network.hpp"

#include <algorithm>
#include <ostream>

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
    return static_cast<int>(envWhole("DR_NOC_THREADS", 1, 256, 1));
}

} // namespace

Network::Network(const NetworkParams &params, const Topology &topo)
    : topo_(topo), params_(params),
      routing_(params.routing, topo, params.numVcs, params.seed,
               params.layout)
{
    if (static_cast<int>(params_.injBufferFlits.size()) != topo_.nodes())
        fatal("network ", params_.name, ": injBufferFlits must have one "
              "entry per node");

    routers_.reserve(topo_.routers());
    for (int r = 0; r < topo_.routers(); ++r) {
        const int radix = topo_.radix(r);
        std::vector<std::uint8_t> isLink(radix, 0);
        std::vector<NodeId> node(radix, invalidNode);
        for (int p = 0; p < radix; ++p) {
            const auto &conn = topo_.port(r, p);
            isLink[p] = conn.kind == PortConn::Kind::Link;
            node[p] = conn.node;
        }
        routers_.push_back(std::make_unique<Router>(
            r, radix, params_.numVcs, params_.vcDepthFlits,
            params_.routerStages, *this, isLink, node,
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

    nis_.resize(topo_.nodes());
    for (NodeId n = 0; n < topo_.nodes(); ++n) {
        Ni &ni = nis_[n];
        ni.capacity = params_.injBufferFlits[n];
        ni.vcSend.resize(params_.numVcs);
        ni.vcFlitsSent.assign(params_.numVcs, 0);
        ni.credits.assign(params_.numVcs, params_.vcDepthFlits);
        ni.ejFree = params_.ejBufferFlits;
        ni.assembling.assign(params_.numVcs, 0);
        ni.assembledFlits.assign(params_.numVcs, 0);
        // Ring capacities sized to the structural bounds so the queues
        // never grow in steady state: credits outstanding are bounded
        // by the attach link's VC buffers, staged ejections by the
        // ejection buffer, queued packets by the injection buffer
        // (every packet is at least one flit).
        ni.creditArrivals.reserve(
            static_cast<std::size_t>(params_.numVcs) *
            static_cast<std::size_t>(params_.vcDepthFlits));
        ni.ejArrivals.reserve(
            static_cast<std::size_t>(params_.ejBufferFlits));
        ni.queue[0].reserve(static_cast<std::size_t>(ni.capacity));
        ni.queue[1].reserve(static_cast<std::size_t>(ni.capacity));
    }

    // --- spatial-domain partition (DESIGN.md §11) ----------------------
    // Contiguous, balanced router ranges; a node lives in its attach
    // router's domain, so every NI<->router attach link and every
    // router<->ejection interaction stays domain-local. Node attach
    // order is monotone in every built-in topology, which makes the
    // node ranges contiguous too — the serial merge depends on that to
    // replay delivery events in global NI order. If a future topology
    // breaks monotonicity we fall back to one domain rather than give
    // up bit-equality.
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
    bool monotone = true;
    for (NodeId n = 0; n < topo_.nodes(); ++n) {
        nodeDomain_[n] = routerDomain_[topo_.attachRouter(n)];
        if (n > 0 && nodeDomain_[n] < nodeDomain_[n - 1])
            monotone = false;
    }
    if (!monotone) {
        numDomains_ = 1;
        std::fill(routerDomain_.begin(), routerDomain_.end(),
                  std::int16_t{0});
        std::fill(nodeDomain_.begin(), nodeDomain_.end(), std::int16_t{0});
    }

    domains_.resize(static_cast<std::size_t>(numDomains_));
    for (Domain &d : domains_) {
        d.activeNis = ActiveSet(topo_.nodes());
        d.activeRouters = ActiveSet(topo_.routers());
    }
    stagedFlits_.resize(
        static_cast<std::size_t>(numDomains_) * numDomains_);
    stagedCredits_.resize(
        static_cast<std::size_t>(numDomains_) * numDomains_);

    // Writer-domain stamps: record each structure's owning domain so the
    // DR_CHECKED phase checks can validate every compute-phase write.
    for (int r = 0; r < topo_.routers(); ++r)
        routers_[r]->setDomain(routerDomain_[r]);
    for (NodeId n = 0; n < topo_.nodes(); ++n)
        DR_STAMP_SET_OWNER(nis_[n], nodeDomain_[n]);
    for (int d = 0; d < numDomains_; ++d)
        DR_STAMP_SET_OWNER(domains_[d], d);
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
    DR_PHASE_ASSERT_COMMIT();
    const int clsIdx = msg.cls == TrafficClass::Cpu ? 0 : 1;
    const int vnIdx = static_cast<int>(vn);
    ++stats_.packetsInjected;
    ++stats_.vnPacketsInjected[vnIdx];

    // Local delivery: the message loops back inside the NI without
    // entering the fabric. It completes in zero cycles — the minimum —
    // and that is sampled into the latency averages so local traffic is
    // not invisible to latency figures; flit, link, and router counters
    // are untouched because no flit ever exists (DESIGN.md).
    if (msg.src == msg.dst) {
        const int kindIdx = onRequestNetwork(msg.type) ? 0 : 1;
        nis_[msg.dst].ready[kindIdx].push_back({msg, 0});
        ++stats_.packetsDelivered;
        ++stats_.localDeliveries;
        stats_.packetLatency.sample(0.0);
        if (msg.cls == TrafficClass::Cpu)
            stats_.cpuPacketLatency.sample(0.0);
        else
            stats_.gpuPacketLatency.sample(0.0);
        return;
    }

    const PacketHandle handle = pool_.alloc();
    Packet &pkt = pool_[handle];
    pkt.msg = msg;
    pkt.id = nextPktId_++;
    pkt.flits = flits;
    pkt.srcRouter = static_cast<std::int16_t>(topo_.attachRouter(msg.src));
    pkt.destRouter = static_cast<std::int16_t>(topo_.attachRouter(msg.dst));
    pkt.destPort = static_cast<std::int16_t>(topo_.attachPort(msg.dst));
    pkt.cls = msg.cls;
    pkt.vnet = vn;
    pkt.order = routing_.chooseOrder(pkt.srcRouter, pkt.destRouter, *this);
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

    Ni &ni = nis_[msg.src];
    if (ni.capacity - ni.queuedFlits < flits)
        panic("network ", params_.name, ": inject() without canInject()");
    ni.queuedFlits += flits;
    ni.queue[clsIdx].push_back(handle);
    domains_[nodeDomain_[msg.src]].activeNis.add(msg.src);
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
    while (!ni.creditArrivals.empty() &&
           ni.creditArrivals.front().when <= now) {
        ++ni.credits[ni.creditArrivals.front().vc];
        ni.creditArrivals.pop_front();
    }

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
    int sendVc = -1;
    int sendRank = 0;
    bool sendCpu = false;
    for (int i = 0; i < params_.numVcs; ++i) {
        const int v = (ni.sendRr + i) % params_.numVcs;
        const auto &ss = ni.vcSend[v];
        if (!ss.busy || ni.credits[v] <= 0)
            continue;
        const Packet &p = pool_[ss.pkt];
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
        const bool gpuMayStart = sendVc < 0;
        for (int clsIdx = 0; clsIdx < 2; ++clsIdx) {
            if (clsIdx == 1 && !gpuMayStart)
                break;
            if (ni.queue[clsIdx].empty())
                continue;
            const Packet &pkt = pool_[ni.queue[clsIdx].front()];
            Flit probe;  // only routing fields matter for the mask hook
            probe.destRouter = pkt.destRouter;
            probe.order = pkt.order;
            probe.vnet = pkt.vnet;
            const std::uint8_t mask =
                pkt.vcMask & routing_.vcMaskForLink(attachRouter, probe);
            bool assigned = false;
            for (int v = 0; v < params_.numVcs; ++v) {
                if (!(mask & (1u << v)) || ni.vcSend[v].busy ||
                    ni.credits[v] <= 0) {
                    continue;
                }
                ni.vcSend[v].busy = true;
                ni.vcSend[v].pkt = ni.queue[clsIdx].front();
                ni.vcSend[v].sent = 0;
                ni.queue[clsIdx].pop_front();
                sendVc = v;
                assigned = true;
                break;
            }
            if (!assigned) {
                // Head-of-line packet found no free, credited VC in its
                // virtual network's range this cycle.
                ++d.vnInjectionStalls[static_cast<int>(pkt.vnet)];
            }
            if (assigned)
                break;
        }
    }

    if (sendVc < 0)
        return;

    auto &ss = ni.vcSend[sendVc];
    Packet &pkt = pool_[ss.pkt];
    Flit flit;
    flit.pkt = pkt.id;
    flit.slot = ss.pkt;
    flit.seq = static_cast<std::uint16_t>(ss.sent);
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
    const int vnIdx = static_cast<int>(pkt.vnet);
    if (++d.vnDelta[vnIdx] > d.vnMaxPrefix[vnIdx])
        d.vnMaxPrefix[vnIdx] = d.vnDelta[vnIdx];
    routers_[attachRouter]->acceptFlit(attachPort, flit, now + 1);
    d.activeRouters.add(attachRouter);
    --ni.credits[sendVc];
    --ni.queuedFlits;
    DR_ASSERT(ni.queuedFlits >= 0);
    ++ni.flitsInjected;
    ++ni.vcFlitsSent[sendVc];
    ++d.conservInjected;
    ++ss.sent;
    if (flit.tail)
        ss.busy = false;
    ni.sendRr = (sendVc + 1) % params_.numVcs;
}

void
Network::niEject(Domain &d, Ni &ni, NodeId node, Cycle now)
{
    (void)node;
    DR_STAMP_WRITE(ni);
    while (!ni.ejArrivals.empty() && ni.ejArrivals.front().when <= now) {
        const Flit flit = ni.ejArrivals.front().flit;
        ni.ejArrivals.pop_front();
        ++ni.flitsEjected;
        ++d.conservEjected;
        ++d.flitsDelivered;
        ++d.vnFlitsDelivered[static_cast<int>(flit.vnet)];
        --d.vnDelta[static_cast<int>(flit.vnet)];

        const int v = flit.vc;
        if (flit.head) {
            ni.assembling[v] = flit.pkt;
            ni.assembledFlits[v] = 0;
        }
        if (ni.assembling[v] != flit.pkt)
            panic("network ", params_.name, ": interleaved packets on one "
                  "ejection VC");
        ++ni.assembledFlits[v];
        if (!flit.tail)
            continue;

        if (!pool_.isLive(flit.slot) || pool_[flit.slot].id != flit.pkt)
            panic("network ", params_.name, ": unknown packet ejected");
        const Packet &pkt = pool_[flit.slot];
        if (ni.assembledFlits[v] != pkt.flits)
            panic("network ", params_.name, ": flit count mismatch at "
                  "reassembly");

        // The order-sensitive completion effects — floating-point
        // latency sampling, the HARE history update, the packet-pool
        // release (free-list order decides future handle reuse) — are
        // recorded here and replayed serially by mergeTick() in global
        // NI order, so they happen in exactly the sequential schedule's
        // order no matter which worker ran this NI. A packet queued
        // before the warmup/measurement boundary straddles both phases;
        // its latency is dropped from the averages at merge time and
        // counted in warmupStraddlers instead.
        const Cycle latency = now - pkt.queuedAt;
        d.delivered.push_back({flit.slot, pkt.srcRouter, pkt.destRouter,
                               pkt.order, pkt.cls,
                               pkt.queuedAt < statsResetAt_, latency});

        const int kindIdx = onRequestNetwork(pkt.msg.type) ? 0 : 1;
        ni.ready[kindIdx].push_back({pkt.msg, pkt.flits});
        // The completed packet's ejection slots are now accounted
        // against the ready-queue entry (returned by popMessage).
        ni.assembledFlits[v] = 0;
    }
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
Network::tickAll(TickPool &pool, std::span<Network *const> nets, Cycle now)
{
    DR_PHASE_ASSERT_COMMIT();
    // Two-phase compute/commit cycle (DESIGN.md §11). Phase 1 ticks
    // every domain's NIs and routers in parallel: all inter-entity
    // effects are future-timestamped, so phase 1 reads only
    // previous-cycle state, and cross-domain flits/credits are staged
    // in SPSC buffers instead of delivered. Phase 2 — after a barrier —
    // commits the staged movements into the receiving domains' arrival
    // queues. A final serial merge replays the order-sensitive
    // completion effects so the result is bit-identical to
    // noc.threads=1 by construction.
    //
    // Quiescence vote: with every domain's active sets empty, nothing in
    // any net can change this cycle — skip the round (and the pool).
    // A net idle beside a busy one is swept as a no-op.
    bool idle = true;
    for (Network *net : nets) {
        DR_ASSERT(net->numDomains_ == pool.size());
        net->now_ = now;
        idle = idle && net->quiescent();
    }
    if (idle)
        return;

    pool.run([&](int d) {
        phase::ComputeScope cs(d);
        DR_PHASE_ASSERT_COMPUTE();
        for (Network *net : nets)
            net->tickDomain(net->domains_[d], now);
    });
    if (pool.size() > 1) {
        pool.run([&](int d) {
            phase::ComputeScope cs(d);
            for (Network *net : nets)
                net->commitStaged(d);
        });
    }
    for (Network *net : nets)
        net->mergeTick();
}

void
Network::tickDomain(Domain &d, Cycle now)
{
    DR_STAMP_WRITE(d);
#ifdef DR_CHECKED
    if (debugPhaseMutant_ != PhaseMutant::None)
        applyPhaseMutant(d, now);
#endif
    // Active-set scheduling: only NIs and routers holding work are
    // visited; everything else is skipped outright. Members re-register
    // through the flit/credit delivery hooks, and sweep order is
    // ascending-index — identical to the old tick-everything loop, on
    // which the skipped entities were no-ops.
    d.activeNis.sweep([&](int n) {
        Ni &ni = nis_[n];
        const NodeId node = static_cast<NodeId>(n);
        niEject(d, ni, node, now);
        niInject(d, ni, node, now);
        return ni.busy();
    });
    d.activeRouters.sweep([&](int r) {
        routers_[r]->tick(now);
        return !routers_[r]->idle();
    });
}

void
Network::commitStaged(int consumer)
{
    // Drain producers in ascending order. Every router arrival queue
    // has exactly one feeder (the upstream router of that link), so the
    // relative order across queues is irrelevant and the order within a
    // queue equals the producer's deterministic push order — the same
    // sequence the sequential engine builds.
    Domain &d = domains_[consumer];
    DR_STAMP_WRITE(d);
#ifdef DR_CHECKED
    int lastDrained = -1;
#endif
    for (int i = 0; i < numDomains_; ++i) {
        int p = i;
#ifdef DR_CHECKED
        if (debugPhaseMutant_ == PhaseMutant::SpscOutOfOrder)
            // drlint-allow(spsc-drain-order): seeded mutant — the
            // ascending-order assertion below must trap this at runtime.
            p = numDomains_ - 1 - i;
        // Ascending producer order is part of the determinism contract:
        // it equals the order the sequential engine applies these
        // arrivals in, so a reordering bug shows up here, not as a
        // mysteriously different fingerprint.
        DR_ASSERT_MSG(p > lastDrained, "network ", params_.name,
                      ": SPSC staging drained out of order (producer ",
                      p, " after ", lastDrained, ")");
        lastDrained = p;
#endif
        auto &flits = stagedFlits_[static_cast<std::size_t>(p) *
                                       numDomains_ + consumer];
        for (const StagedFlit &s : flits) {
            routers_[s.router]->acceptFlit(s.port, s.flit, s.when);
            d.activeRouters.add(s.router);
        }
        flits.clear();
        auto &credits = stagedCredits_[static_cast<std::size_t>(p) *
                                           numDomains_ + consumer];
        for (const StagedCredit &s : credits) {
            routers_[s.router]->acceptCredit(s.port, s.vc, s.when);
            d.activeRouters.add(s.router);
        }
        credits.clear();
    }
}

void
Network::mergeTick()
{
    DR_PHASE_ASSERT_COMMIT();
    // Ascending domain order == ascending NI order (contiguous node
    // ranges), so the replay below is the exact sequential event order.
    for (Domain &d : domains_) {
        linkTraversals_ += d.linkTraversals;
        d.linkTraversals = 0;
        conservInjected_ += d.conservInjected;
        d.conservInjected = 0;
        conservEjected_ += d.conservEjected;
        d.conservEjected = 0;
        stats_.flitsDelivered += d.flitsDelivered;
        d.flitsDelivered = 0;
        for (int vn = 0; vn < numVnets; ++vn) {
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
            pool_.release(rec.slot);
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

void
Network::deliverToRouter(int router, int port, const Flit &flit, Cycle when)
{
    // Called from phase 1 on the sending router's worker. Same-domain
    // hops commit directly (the arrival is future-timestamped, so the
    // receiver cannot consume it this cycle either way); cross-domain
    // hops are staged and committed after the barrier.
    const auto &conn = topo_.port(router, port);
    const int producer = routerDomain_[router];
    ++domains_[producer].linkTraversals;
    if (conn.interposer) {
        // Interposer link class: extra hop latency, plus occupancy
        // tracking (a flit occupies the downstream interposer buffer
        // until its credit crosses back). Both touches are events of
        // the sending router's tick, so the per-domain delta/max-prefix
        // merge reconstructs the serial event order exactly.
        Domain &pd = domains_[producer];
        DR_STAMP_WRITE(pd);
        ++pd.interposerFlits;
        if (++pd.ipDelta > pd.ipMaxPrefix)
            pd.ipMaxPrefix = pd.ipDelta;
        when += static_cast<Cycle>(params_.interposerLatency);
    }
    const int consumer = routerDomain_[conn.peerRouter];
    if (producer == consumer) {
        routers_[conn.peerRouter]->acceptFlit(conn.peerPort, flit, when);
        domains_[consumer].activeRouters.add(conn.peerRouter);
    } else {
#ifdef DR_CHECKED
        if (debugPhaseMutant_ == PhaseMutant::UnstagedCross) {
            // Seeded mutant: commit the cross-domain hop directly from
            // the producer's worker instead of staging it. The receiving
            // router's stamp check must trap this.
            routers_[conn.peerRouter]->acceptFlit(conn.peerPort, flit,
                                                  when);
            domains_[consumer].activeRouters.add(conn.peerRouter);
            return;
        }
#endif
        stagedFlits_[static_cast<std::size_t>(producer) * numDomains_ +
                     consumer]
            .push_back({static_cast<std::int16_t>(conn.peerRouter),
                        static_cast<std::int16_t>(conn.peerPort), when,
                        flit});
    }
}

void
Network::deliverToNode(NodeId node, const Flit &flit, Cycle when)
{
    // An NI shares its attach router's domain, so ejection never
    // crosses a domain boundary.
    Domain &d = domains_[nodeDomain_[node]];
    Ni &ni = nis_[node];
    DR_STAMP_WRITE(ni);
    ni.ejArrivals.push_back({when, flit});
    d.activeNis.add(node);
    ++d.linkTraversals;
}

int
Network::nodeEjectFree(NodeId node) const
{
    return nis_[node].ejFree;
}

void
Network::nodeEjectReserve(NodeId node)
{
    Ni &ni = nis_[node];
    DR_STAMP_WRITE(ni);
    if (ni.ejFree <= 0)
        panic("ejection reservation without space");
    --ni.ejFree;
}

void
Network::creditToFeeder(int router, int inputPort, int vc, Cycle when)
{
    const auto &conn = topo_.port(router, inputPort);
    if (conn.kind == PortConn::Kind::Link) {
        const int producer = routerDomain_[router];
        const int consumer = routerDomain_[conn.peerRouter];
        if (conn.interposer) {
            // Credit return crosses the interposer too: same added
            // latency, and the freed buffer slot ends the flit's
            // interposer occupancy (an event of this router's tick).
            --domains_[producer].ipDelta;
            when += static_cast<Cycle>(params_.interposerLatency);
        }
        if (producer == consumer) {
            routers_[conn.peerRouter]->acceptCredit(conn.peerPort, vc,
                                                    when);
            domains_[consumer].activeRouters.add(conn.peerRouter);
        } else {
            stagedCredits_[static_cast<std::size_t>(producer) *
                               numDomains_ +
                           consumer]
                .push_back({static_cast<std::int16_t>(conn.peerRouter),
                            static_cast<std::int16_t>(conn.peerPort),
                            static_cast<std::uint8_t>(vc), when});
        }
    } else if (conn.kind == PortConn::Kind::Node) {
        // Attach links are domain-local by construction.
        Ni &ni = nis_[conn.node];
        DR_STAMP_WRITE(ni);
        ni.creditArrivals.push_back(
            {when, static_cast<std::uint8_t>(vc)});
        domains_[nodeDomain_[conn.node]].activeNis.add(conn.node);
    } else {
        panic("credit to unconnected port");
    }
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
Network::applyPhaseMutant(Domain &d, Cycle now)
{
#ifdef DR_CHECKED
    // Mutants needing a foreign domain fire from domain 0's worker
    // against the last domain's state; they are inert on the serial
    // engine (numDomains_ == 1), where no ownership boundary exists.
    if (numDomains_ < 2 || &d != &domains_[0])
        return;
    const NodeId victim = static_cast<NodeId>(topo_.nodes() - 1);
    switch (debugPhaseMutant_) {
    case PhaseMutant::CrossDomainWrite:
        // drlint-allow(cross-domain-commit): seeded mutant — the NI
        // stamp check inside niEject must trap this foreign-domain call.
        niEject(d, nis_[victim], victim, now);
        break;
    case PhaseMutant::SerialInCompute:
        // drlint-allow(compute-calls-commit): seeded mutant — the
        // pool's commit-phase assertion must trap this.
        // drlint-allow(phase-escape): same mutant, transitive view.
        pool_.release(pool_.alloc());
        break;
    case PhaseMutant::StampBypass:
        // A write path that updates state without passing a checked
        // entry point leaves a writer record the audit rejects.
        nis_[victim].drStamp_.writer =
            static_cast<std::int16_t>(nodeDomain_[victim] + 1);
        break;
    default:
        break;
    }
#else
    (void)d;
    (void)now;
#endif
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
    linkTraversals_ = 0;
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
    for (const auto &router : routers_) {
        if (router->bufferedFlits() > 0)
            router->debugDump(os);
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

std::uint64_t
Network::totalLinkTraversals() const
{
    DR_PHASE_ASSERT_COMMIT();
    return linkTraversals_;
}

int
Network::flitsInFlight() const
{
    int total = 0;
    for (const auto &router : routers_)
        total += router->bufferedFlits() + router->pendingArrivalFlits();
    for (const auto &ni : nis_)
        total += static_cast<int>(ni.ejArrivals.size());
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

    // Router-to-router links: credits held upstream + flits occupying
    // (or in flight toward) the downstream buffer + credit returns in
    // flight must equal the buffer depth.
    for (int r = 0; r < topo_.routers(); ++r) {
        for (int p = 0; p < topo_.radix(r); ++p) {
            const auto &conn = topo_.port(r, p);
            if (conn.kind != PortConn::Kind::Link)
                continue;
            for (int v = 0; v < params_.numVcs; ++v) {
                const int held = routers_[r]->outVcCredits(p, v);
                const int downstream =
                    routers_[conn.peerRouter]->inVcOccupancy(conn.peerPort,
                                                             v);
                const int returning = routers_[r]->pendingCreditsFor(p, v);
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
        for (int v = 0; v < params_.numVcs; ++v) {
            const int held = ni.credits[v];
            const int downstream =
                routers_[attachRouter]->inVcOccupancy(attachPort, v);
            int returning = 0;
            for (std::size_t i = 0; i < ni.creditArrivals.size(); ++i) {
                if (ni.creditArrivals[i].vc == v)
                    ++returning;
            }
            if (held + downstream + returning != depth) {
                panic("network ", params_.name,
                      ": credit conservation violated on NI", n, " vc ", v,
                      ": ", held, " held + ", downstream, " downstream + ",
                      returning, " returning != depth ", depth);
            }
        }

        int staged = static_cast<int>(ni.ejArrivals.size());
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

#include "gpu/sm_core.hpp"

#include <algorithm>
#include <bit>

#include "common/invariant.hpp"
#include "common/log.hpp"

namespace dr
{

SmCore::SmCore(NodeId nodeId, int coreIdx, const SystemConfig &cfg,
               Interconnect &ic, const AddressMap &map,
               GpuCoherence &coherence, CtaScheduler &ctaSched,
               const KernelAccessPattern &kernel, L1Organizer &l1,
               const std::vector<NodeId> &gpuCoreIds)
    : nodeId_(nodeId), coreIdx_(coreIdx), cfg_(cfg), ic_(ic), map_(map),
      coherence_(coherence), ctaSched_(ctaSched), kernel_(kernel), l1_(l1),
      gpuCoreIds_(gpuCoreIds),
      warps_(static_cast<std::size_t>(cfg.gpu.warpsPerCore)),
      readReqFlits_(cfg.flitsFor(MsgType::ReadReq, TrafficClass::Gpu)),
      writeReqFlits_(cfg.flitsFor(MsgType::WriteReq, TrafficClass::Gpu)),
      mshrs_(cfg.gpu.l1Mshrs, cfg.gpu.mshrTargets),
      predictor_(cfg.rp.predictorEntries),
      nextReqId_((static_cast<std::uint64_t>(nodeId) << 48) | 1u)
{
    // Warp slots are grouped into CTA slots of warpsPerCta warps (the
    // per-core CTA concurrency limit). Kernels with more warps per CTA
    // than warp slots are clamped.
    const int perCta = std::min(kernel.warpsPerCta(), cfg.gpu.warpsPerCore);
    const int slots = std::max(1, cfg.gpu.warpsPerCore / perCta);
    ctaSlots_.resize(slots);
    int warpId = 0;
    for (auto &slot : ctaSlots_) {
        for (int i = 0; i < perCta; ++i)
            slot.warpIds.push_back(warpId++);
    }
    for (std::size_t s = 0; s < ctaSlots_.size(); ++s) {
        for (const int w : ctaSlots_[s].warpIds)
            warps_[w].slot = static_cast<int>(s);
        assignCta(ctaSlots_[s], 0);
    }
}

Message
SmCore::makeRequest(MsgType type, Addr line, Cycle now) const
{
    Message m;
    m.type = type;
    m.cls = TrafficClass::Gpu;
    m.addr = line;
    m.src = nodeId_;
    m.dst = map_.nodeOf(line);
    m.requester = nodeId_;
    m.id = nextReqId_;
    m.created = now;
    return m;
}

void
SmCore::tick(Cycle now)
{
    DR_PHASE_ASSERT_DOMAIN(domain_);
    DR_CHECKED_ONLY(frqServicedThisTick_ = false);
    receiveReplies(now);
    receiveRequests(now);
    if (cfg_.dr.frqRemotePriority)
        processFrq(now);
    drainOutbound(now);
    issueWarps(now);
    if (!cfg_.dr.frqRemotePriority)
        processFrq(now);
}

void
SmCore::receiveReplies(Cycle now)
{
    while (ic_.hasMessage(nodeId_, NetKind::Reply)) {
        const Message msg = ic_.popMessage(nodeId_, NetKind::Reply);
        const Addr line = msg.addr;
        switch (msg.type) {
          case MsgType::ReadReply: {
            ++stats_.repliesReceived;
            auto probe = probes_.find(line);
            if (probe != probes_.end()) {
                // A probe was answered (by a remote L1 or, after
                // fallback, by the LLC). Train on who replied.
                const bool fromCore =
                    msg.src != invalidNode && !isMemNode(msg.src);
                trainPredictor(line, fromCore);
                probes_.erase(probe);
            }
            wakeTargets(line, now);
            break;
          }
          case MsgType::WriteAck:
            if (outstandingWrites_ > 0) {
                --outstandingWrites_;
                ++retryEpoch_;  // the write cap may lift
            }
            break;
          case MsgType::ProbeNack: {
            auto probe = probes_.find(line);
            if (probe == probes_.end())
                break;  // already resolved by a data reply
            if (--probe->second.nacksLeft <= 0) {
                // Every probed cache missed: fall back to the LLC.
                trainPredictor(line, false);
                probes_.erase(probe);
                if (mshrs_.outstanding(line)) {
                    probeFallbacks_.push_back(line);
                    ++stats_.probeFallbacks;
                }
            }
            break;
          }
          default:
            panic("SM core received unexpected reply type ",
                  msgTypeName(msg.type));
        }
    }
}

void
SmCore::trainPredictor(Addr line, bool remoteHit)
{
    predictor_.train(line, remoteHit);
    ++retryEpoch_;  // a stalled miss may now probe, or stop probing
}

bool
SmCore::isMemNode(NodeId node) const
{
    for (const NodeId g : gpuCoreIds_) {
        if (g == node)
            return false;
    }
    return true;
}

void
SmCore::receiveRequests(Cycle now)
{
    (void)now;
    while (ic_.hasMessage(nodeId_, NetKind::Request)) {
        const Message &head = ic_.peekMessage(nodeId_, NetKind::Request);
        if (head.type == MsgType::DelegatedReq) {
            if (static_cast<int>(frq_.size()) >= cfg_.gpu.frqEntries)
                break;  // FRQ full: back-pressure the request network
            for (const Message &queued : frq_) {
                if (queued.addr == head.addr) {
                    ++stats_.frqSameBlock;
                    break;
                }
            }
            // The delegate is always a third party: a memory node never
            // forwards a core its own request (mem_node asserts the
            // sending side of the same law).
            DR_INVARIANT(head.requester != nodeId_,
                         "core ", coreIdx_, " received a delegated "
                         "request for its own miss");
            frq_.push_back(ic_.popMessage(nodeId_, NetKind::Request));
            ++stats_.frqReceived;
            DR_INVARIANT(static_cast<int>(frq_.size()) <=
                             cfg_.gpu.frqEntries,
                         "core ", coreIdx_, " FRQ overran its ",
                         cfg_.gpu.frqEntries, " entries");
        } else if (head.type == MsgType::ProbeReq) {
            if (probeQueue_.size() >= 8)
                break;
            probeQueue_.push_back(ic_.popMessage(nodeId_, NetKind::Request));
        } else {
            panic("SM core received unexpected request type ",
                  msgTypeName(head.type));
        }
    }
}

bool
SmCore::sendOrQueueReply(const Message &msg, Cycle now)
{
    if (static_cast<int>(outboundReplies_.size()) >= maxOutboundReplies_)
        return false;
    (void)now;
    outboundReplies_.push_back(msg);
    return true;
}

void
SmCore::processFrq(Cycle now)
{
    DR_CHECKED_ONLY(frqServicedThisTick_ = true);
    // One forwarded request per cycle, with priority over local accesses
    // (deadlock avoidance, Section IV).
    if (!frq_.empty()) {
        const Message &msg = frq_.front();
        const Addr line = msg.addr;
        if (l1_.contains(coreIdx_, line)) {
            Message reply;
            reply.type = MsgType::ReadReply;
            reply.cls = TrafficClass::Gpu;
            reply.addr = line;
            reply.src = nodeId_;
            reply.dst = msg.requester;
            reply.requester = msg.requester;
            reply.id = msg.id;
            reply.created = msg.created;
            if (sendOrQueueReply(reply, now)) {
                ++stats_.frqRemoteHits;
                frq_.pop_front();
            }
        } else if (mshrs_.outstanding(line) &&
                   mshrs_.addTarget(line, {msg.id, msg.requester,
                                           TrafficClass::Gpu, true,
                                           false})) {
            // Delayed hit: the data arrives shortly; forward it then.
            ++stats_.frqDelayedHits;
            frq_.pop_front();
        } else {
            // Remote miss: re-send to the LLC with the DNF bit; no MSHR
            // is allocated here (Section IV) and the LLC will reply to
            // the original requester and re-point the line.
            Message resend = makeRequest(MsgType::ReadReq, line, now);
            resend.dnf = true;
            resend.requester = msg.requester;
            resend.id = msg.id;
            // The re-send rides the Request VN, not ForwardedRequest:
            // sharing buffering with the delegation fan-in that produced
            // it would re-create the DESIGN.md §10 cycle (noc/vnet.hpp).
            DR_ASSERT_MSG(ic_.vnetFor(resend) == VirtualNet::Request,
                          "core ", coreIdx_,
                          " DNF re-send classified off the Request VN");
            // The DNF re-send goes back to the line's home LLC slice on
            // behalf of the original requester — never to another core
            // (no delegation chains, Section IV).
            DR_ASSERT_MSG(isMemNode(resend.dst),
                          "core ", coreIdx_,
                          " DNF re-send addressed to a core");
            if (ic_.canSend(resend)) {
                ic_.send(resend, now);
                ++stats_.frqRemoteMisses;
                ++stats_.dnfRequests;
                frq_.pop_front();
            }
        }
    }

    // Serve one incoming RP probe per cycle.
    if (!probeQueue_.empty()) {
        const Message &msg = probeQueue_.front();
        const Addr line = msg.addr;
        Message reply;
        reply.cls = TrafficClass::Gpu;
        reply.addr = line;
        reply.src = nodeId_;
        reply.dst = msg.requester;
        reply.requester = msg.requester;
        reply.id = msg.id;
        reply.created = msg.created;
        reply.type = l1_.contains(coreIdx_, line) ? MsgType::ReadReply
                                                  : MsgType::ProbeNack;
        if (sendOrQueueReply(reply, now)) {
            if (reply.type == MsgType::ReadReply)
                ++stats_.probeHitsServed;
            else
                ++stats_.probeNacksServed;
            probeQueue_.pop_front();
        }
    }
}

void
SmCore::drainOutbound(Cycle now)
{
    while (!outboundReplies_.empty() &&
           ic_.canSend(outboundReplies_.front())) {
        ic_.send(outboundReplies_.front(), now);
        outboundReplies_.pop_front();
    }

    // Probe fallbacks re-enter the LLC path as ordinary requests.
    while (!probeFallbacks_.empty()) {
        const Addr line = probeFallbacks_.front();
        if (!mshrs_.outstanding(line)) {
            probeFallbacks_.pop_front();  // resolved by a late data reply
            continue;
        }
        Message req = makeRequest(MsgType::ReadReq, line, now);
        if (!ic_.canSend(req))
            break;
        ic_.send(req, now);
        ++nextReqId_;
        ++stats_.llcRequests;
        probeFallbacks_.pop_front();
    }
}

void
SmCore::setState(Warp &warp, Warp::State state)
{
    warp.state = state;
    const std::uint64_t bit = std::uint64_t{1}
                              << (&warp - warps_.data());
    if (state == Warp::State::Ready || state == Warp::State::Stalled)
        eligible_ |= bit;
    else
        eligible_ &= ~bit;
}

void
SmCore::issueWarps(Cycle now)
{
    // Deadlock avoidance (Section IV): with remote priority enabled the
    // FRQ must have been offered service before any local issue.
    DR_INVARIANT(!cfg_.dr.frqRemotePriority || frqServicedThisTick_,
                 "core ", coreIdx_,
                 " FRQ-priority ordering violated: local issue before "
                 "forwarded-request service");
    // A shared L1's serial merge may have changed the lines this core
    // sees since the last tick.
    const std::uint64_t view = l1_.viewEpoch(coreIdx_);
    if (view != l1View_) {
        l1View_ = view;
        ++retryEpoch_;
    }
    const int n = static_cast<int>(warps_.size());
    const std::uint64_t all =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    int issued = 0;
    for (int k = 0; k < n && issued < cfg_.gpu.issueWidth; ++k) {
        // The scan visits warp (greedyWarp_ + k) % n at step k; the
        // NeedWork and WaitMem warps it passes over have no effect, so
        // k jumps straight to the next eligible warp in that order.
        const int from = (greedyWarp_ + k) % n;
        const std::uint64_t ahead =
            from == 0 ? eligible_
                      : ((eligible_ >> from) | (eligible_ << (n - from))) &
                            all;
        if (ahead == 0)
            break;
        k += std::countr_zero(ahead);
        if (k >= n)
            break;
        const int w = (greedyWarp_ + k) % n;
        Warp &warp = warps_[w];
        if (warp.readyAt > now)
            continue;
        if (warp.state == Warp::State::Ready && warp.computeLeft > 0) {
            --warp.computeLeft;
            ++stats_.instructions;
            ++issued;
            greedyWarp_ = w;  // GTO: stick with the issuing warp
            continue;
        }
        if (warp.state == Warp::State::Stalled &&
            warp.stallEpoch == retryEpoch_ && !requestFits(warp.stallNeed)) {
            // Nothing the failed retry read has changed since: it would
            // fail the same check again.
            DR_INVARIANT(replaysStall(warp), "core ", coreIdx_, " warp ", w,
                         " skipped a retry whose checks changed; an "
                         "event that changes them left retryEpoch_");
            ++(stats_.*warp.stallStat);
            continue;
        }
        // Memory access due (or a stalled one being retried).
        if (!warp.hasPending) {
            warp.pending =
                kernel_.access(warp.cta, warp.warpInCta, warp.accessIdx);
            warp.hasPending = true;
        }
        if (executeMemAccess(warp, w, now)) {
            ++stats_.instructions;
            ++stats_.memAccesses;
            ++issued;
            greedyWarp_ = w;
        } else {
            setState(warp, Warp::State::Stalled);
        }
    }
}

void
SmCore::advanceWarp(Warp &warp, Cycle now, Cycle extraLatency)
{
    warp.hasPending = false;
    ++warp.accessIdx;
    if (warp.accessIdx >= kernel_.accessesPerWarp()) {
        finishWarp(warp, now);
        return;
    }
    warp.computeLeft = kernel_.computePerMem();
    setState(warp, Warp::State::Ready);
    warp.readyAt = now + extraLatency;
}

bool
SmCore::replaysStall(const Warp &warp) const
{
    const AccessPlan replay = planAccess(warp.pending, lineOf(warp.pending));
    return replay.step == AccessPlan::Step::Stall &&
           replay.stall == warp.stallStat && replay.need == warp.stallNeed;
}

SmCore::AccessPlan
SmCore::planAccess(const MemAccess &access, Addr line) const
{
    using Step = AccessPlan::Step;
    if (access.write) {
        // Write-through: the store goes to the LLC; the warp continues
        // once the request is accepted (bounded by outstanding writes).
        if (outstandingWrites_ >= maxOutstandingWrites_)
            return {Step::Stall, &SmCoreStats::stallInject, kNoSpaceHelps};
        if (!requestFits(writeReqFlits_))
            return {Step::Stall, &SmCoreStats::stallInject, writeReqFlits_};
        return {Step::Write};
    }
    if (l1_.contains(coreIdx_, line))
        return {Step::Hit};
    if (mshrs_.outstanding(line)) {
        if (!mshrs_.hasTargetSpace(line))
            return {Step::Stall, &SmCoreStats::stallNoMshr, kNoSpaceHelps};
        return {Step::Merge};
    }
    if (mshrs_.full())
        return {Step::Stall, &SmCoreStats::stallNoMshr, kNoSpaceHelps};
    if (cfg_.mechanism == Mechanism::RealisticProbing &&
        cfg_.gpu.numCores > 1 && predictor_.shouldProbe(line)) {
        // All probes must be injectable at once (they share one id and
        // one MSHR entry).
        const int count = static_cast<int>(
            probeCandidates(coreIdx_, line, cfg_.rp.probeCount, gpuCoreIds_)
                .size());
        if (count == 0)
            return {Step::Stall, &SmCoreStats::stallInject, kNoSpaceHelps};
        if (!requestFits(count))
            return {Step::Stall, &SmCoreStats::stallInject, count};
        return {Step::Probe};
    }
    if (!requestFits(readReqFlits_))
        return {Step::Stall, &SmCoreStats::stallInject, readReqFlits_};
    return {Step::Miss};
}

bool
SmCore::executeMemAccess(Warp &warp, int warpId, Cycle now)
{
    const Addr line = lineOf(warp.pending);
    // Decide before touching any state, so a structural stall has no
    // side effects; only the L1 port, claimed last, can still refuse.
    const AccessPlan plan = planAccess(warp.pending, line);
    warp.stallEpoch = 0;
    const MshrTarget self{static_cast<std::uint64_t>(warpId), nodeId_,
                          TrafficClass::Gpu, false, false};
    switch (plan.step) {
      case AccessPlan::Step::Stall:
        ++(stats_.*plan.stall);
        warp.stallEpoch = retryEpoch_;
        warp.stallStat = plan.stall;
        warp.stallNeed = plan.need;
        return false;

      case AccessPlan::Step::Write: {
        const Message req = makeRequest(MsgType::WriteReq, line, now);
        ++stats_.stores;
        l1_.write(coreIdx_, line, now);
        ic_.send(req, now);
        ++nextReqId_;
        ++outstandingWrites_;
        ++retryEpoch_;  // the write cap may now bind
        advanceWarp(warp, now, 1);
        return true;
      }

      case AccessPlan::Step::Hit: {
        const L1Result res = l1_.load(coreIdx_, line, now);
        if (res == L1Result::PortBusy) {
            ++stats_.stallPort;
            return false;
        }
        // The line cannot vanish between contains() and load(): the
        // tags a lookup reads change only in this core's own calls or
        // in the serial merge.
        if (res != L1Result::Hit)
            panic("L1 contains/load disagree");
        ++stats_.loads;
        ++stats_.l1Hits;
        advanceWarp(warp, now, static_cast<Cycle>(l1_.hitLatency()));
        return true;
      }

      case AccessPlan::Step::Merge:
        if (!mshrs_.addTarget(line, self))
            panic("MSHR target space vanished between plan and merge");
        ++stats_.loads;
        ++stats_.l1Misses;
        ++stats_.mshrMerges;
        if (localityOracle_)
            oracleQueries_.push_back(line);
        setState(warp, Warp::State::WaitMem);
        warp.issueCycle = now;
        return true;

      case AccessPlan::Step::Probe:
      case AccessPlan::Step::Miss:
        break;
    }

    // A new miss: port/tag access, then the MSHR and the request(s).
    const L1Result res = l1_.load(coreIdx_, line, now);
    if (res == L1Result::PortBusy) {
        ++stats_.stallPort;
        return false;
    }
    ++stats_.loads;
    ++stats_.l1Misses;
    if (localityOracle_)
        oracleQueries_.push_back(line);
    mshrs_.allocate(line, self, now);
    ++retryEpoch_;  // a stalled miss to this line can now merge
    if (plan.step == AccessPlan::Step::Probe) {
        const std::vector<NodeId> targets = probeCandidates(
            coreIdx_, line, cfg_.rp.probeCount, gpuCoreIds_);
        Message probe = makeRequest(MsgType::ProbeReq, line, now);
        ++nextReqId_;
        for (const NodeId target : targets) {
            probe.dst = target;
            ic_.send(probe, now);
            ++stats_.probesSent;
        }
        probes_[line] = {static_cast<int>(targets.size()), false, now};
    } else {
        ic_.send(makeRequest(MsgType::ReadReq, line, now), now);
        ++nextReqId_;
        ++stats_.llcRequests;
    }
    setState(warp, Warp::State::WaitMem);
    warp.issueCycle = now;
    return true;
}

void
SmCore::wakeTargets(Addr line, Cycle now)
{
    if (!mshrs_.outstanding(line))
        return;  // duplicate reply (e.g., two probe hits); drop
    const auto targets = mshrs_.release(line);
    l1_.fill(coreIdx_, line);
    ++retryEpoch_;  // the line is present, its MSHR entry free
    for (const auto &t : targets) {
        if (t.remote) {
            // A delayed hit whose data just arrived: forward it.
            Message reply;
            reply.type = MsgType::ReadReply;
            reply.cls = t.cls;
            reply.addr = line;
            reply.src = nodeId_;
            reply.dst = t.replyTo;
            reply.requester = t.replyTo;
            reply.id = t.reqId;
            reply.created = now;
            outboundReplies_.push_back(reply);
            continue;
        }
        Warp &warp = warps_[t.reqId];
        if (warp.state != Warp::State::WaitMem)
            continue;  // warp was re-assigned at a kernel boundary
        stats_.loadLatency.sample(static_cast<double>(now - warp.issueCycle));
        advanceWarp(warp, now, 1);
    }
}

void
SmCore::finishWarp(Warp &warp, Cycle now)
{
    (void)now;
    setState(warp, Warp::State::NeedWork);
    CtaSlot &slot = ctaSlots_[warp.slot];
    if (--slot.warpsLeft <= 0) {
        ++stats_.ctasCompleted;
        // CTA refill pulls from the *shared* scheduler cursor and may
        // flush L1/coherence state at a kernel boundary — cross-core
        // effects, so it runs in the serial merge (refillCtas). The
        // refilled warps only become ready at now + 1 either way.
        pendingCtaRefills_.push_back(warp.slot);
    }
}

void
SmCore::resolveOracleQueries(Cycle now)
{
    (void)now;
    DR_PHASE_ASSERT_COMMIT();
    if (localityOracle_) {
        for (const Addr line : oracleQueries_)
            if (localityOracle_(coreIdx_, line))
                ++stats_.missesWithRemoteCopy;
    }
    oracleQueries_.clear();
}

void
SmCore::refillCtas(Cycle now)
{
    DR_PHASE_ASSERT_COMMIT();
    for (const int s : pendingCtaRefills_)
        assignCta(ctaSlots_[s], now);
    pendingCtaRefills_.clear();
}

Cycle
SmCore::nextEventCycle(Cycle now) const
{
    // Anything queued — incoming messages, forwarded requests, probes,
    // outbound replies, fallback re-sends, pending CTA refills — can
    // make progress next cycle. (Retry loops deliberately report
    // now + 1 rather than modelling when the retry will succeed, so a
    // stuck send is re-attempted every cycle and deadlock is never
    // concealed by the idle-skip fast path.)
    if (ic_.hasMessage(nodeId_, NetKind::Reply) ||
        ic_.hasMessage(nodeId_, NetKind::Request) || !frq_.empty() ||
        !probeQueue_.empty() || !outboundReplies_.empty() ||
        !probeFallbacks_.empty() || !pendingCtaRefills_.empty())
        return now + 1;
    // NeedWork warps wait on a CTA refill and WaitMem warps on a reply
    // arrival, so only the eligible ones set a watermark.
    Cycle next = kNeverCycle;
    for (std::uint64_t m = eligible_; m != 0; m &= m - 1) {
        const Warp &warp = warps_[std::countr_zero(m)];
        if (warp.state == Warp::State::Stalled)
            return now + 1;  // structural retry every cycle
        next = std::min(next, std::max(warp.readyAt, now + 1));
    }
    return next;
}

void
SmCore::assignCta(CtaSlot &slot, Cycle now)
{
    const CtaAssignment a = ctaSched_.next(coreIdx_);
    if (a.kernelInstance > coreInstance_) {
        // Kernel boundary: software coherence flushes the L1 and the
        // LLC core pointers naming this core become stale.
        coreInstance_ = a.kernelInstance;
        l1_.flush(coreIdx_);
        coherence_.flush(coreIdx_);
    }
    slot.cta = a.cta;
    slot.instance = a.kernelInstance;
    slot.warpsLeft = static_cast<int>(slot.warpIds.size());
    int lane = 0;
    for (const int w : slot.warpIds) {
        Warp &warp = warps_[w];
        setState(warp, Warp::State::Ready);
        warp.cta = a.cta;
        warp.warpInCta = lane++;
        warp.instance = a.kernelInstance;
        warp.accessIdx = 0;
        warp.computeLeft = kernel_.computePerMem();
        warp.readyAt = now + 1;
        warp.hasPending = false;
    }
}

} // namespace dr

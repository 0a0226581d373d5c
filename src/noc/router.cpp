#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <ostream>

#include "common/invariant.hpp"
#include "common/log.hpp"

namespace dr
{

namespace
{

/** Bit of `key` within its 64-bit key-set word. */
constexpr std::uint64_t
keyBit(int key)
{
    return std::uint64_t{1} << (key % 64);
}

/** Whether any of a key set's `words` words has a bit set. */
bool
anyKey(const std::uint64_t *set, int words)
{
    for (int w = 0; w < words; ++w) {
        if (set[w])
            return true;
    }
    return false;
}

} // namespace

Router::Router(int id, int numPorts, int numVcs, int vcDepth, int stages,
               RouterEnv &env,
               const std::vector<std::uint8_t> &portIsLink,
               const std::vector<NodeId> &portNode, bool vnPriority)
    : id_(id), numPorts_(numPorts), numVcs_(numVcs), vcDepth_(vcDepth),
      stages_(stages), vnPriority_(vnPriority),
      env_(env), portIsLink_(portIsLink), portNode_(portNode),
      in_(static_cast<std::size_t>(numPorts) * numVcs),
      out_(static_cast<std::size_t>(numPorts) * numVcs),
      keyWords_((numPorts * numVcs + 63) / 64),
      rrPtr_(numPorts, 0),
      saUsed_(static_cast<std::size_t>(keyWords_), 0),
      saReq_(static_cast<std::size_t>(numPorts) * keyWords_, 0),
      portInterval_(numPorts, 1),
      portNextFree_(numPorts, 0),
      keySets_(3 * static_cast<std::size_t>(keyWords_), 0)
{
    if (numVcs_ > 8)
        fatal("at most 8 VCs supported (VC masks are 8 bits)");
    if (stages_ < 1)
        fatal("router pipeline needs at least one stage, got ", stages_);
    for (int p = 0; p < numPorts_; ++p) {
        for (int v = 0; v < numVcs_; ++v) {
            out_[p * numVcs_ + v].credits = vcDepth;
            in_[p * numVcs_ + v].buf.reserve(
                static_cast<std::size_t>(vcDepth));
        }
    }
}

void
Router::applyFlit(int port, const Flit &flit)
{
    DR_STAMP_WRITE(*this);
    DR_ASSERT_MSG(flit.vc < numVcs_, "router ", id_,
                  ": arriving flit names VC ", int(flit.vc));
    const int key = port * numVcs_ + flit.vc;
    DR_INVARIANT(static_cast<int>(in_[key].buf.size()) < vcDepth_,
                 "router ", id_, " port ", port, " vc ", int(flit.vc),
                 " input buffer overrun (upstream sent without credit)");
    in_[key].buf.push_back(flit);
    keySets_[key / 64] |= keyBit(key);
    ++stats_.bufferWrites;
    ++bufferedCount_;
    quiescent_ = false;
}

void
Router::applyCredit(int port, int vc)
{
    DR_STAMP_WRITE(*this);
    // Credit conservation: returns can never push a VC's credit count
    // past the buffer depth (that would be a duplicated credit, letting
    // the upstream router overrun the buffer).
    DR_INVARIANT(out_[port * numVcs_ + vc].credits < vcDepth_, "router ",
                 id_, " port ", port, " vc ", vc,
                 " credit return exceeds buffer depth ", vcDepth_);
    ++out_[port * numVcs_ + vc].credits;
    quiescent_ = false;
}

template <int W>
bool
Router::routeCompute()
{
    const int words = W ? W : keyWords_;
    const std::uint64_t *occ = keySets_.data();
    std::uint64_t *routed = keySets_.data() + words;
    bool any = false;
    for (int w = 0; w < words; ++w) {
        // Non-empty input VCs whose head has no output port yet.
        std::uint64_t pending = occ[w] & ~routed[w];
        if (!pending)
            continue;
        any = true;
        routed[w] |= pending;
        while (pending) {
            const int key = w * 64 + std::countr_zero(pending);
            pending &= pending - 1;
            InVc &ivc = in_[key];
            const Flit &head = ivc.buf.front();
            if (!head.head)
                panic("router ", id_, ": body flit at idle VC head");
            // Rank and VC mask depend on (router, port, head) alone.
            const int outPort = env_.routeOutput(id_, head);
            ivc.outPort = static_cast<std::int16_t>(outPort);
            ivc.rank = static_cast<std::uint8_t>(
                arbRank(head.cls, head.vnet, vnPriority_));
            ivc.vcMask = head.vcMask &
                         env_.vcMaskForOutput(id_, outPort, head);
        }
    }
    return any;
}

template <int W>
bool
Router::vcAllocate()
{
    const int words = W ? W : keyWords_;
    const std::uint64_t *occ = keySets_.data();
    const std::uint64_t *routed = occ + words;
    std::uint64_t *active = keySets_.data() + 2 * words;
    // Ranks of the routed, non-empty heads that need an output VC.
    unsigned ranks = 0;
    for (int w = 0; w < words; ++w) {
        for (std::uint64_t m = routed[w] & ~active[w] & occ[w]; m != 0;
             m &= m - 1)
            ranks |= 1u << in_[w * 64 + std::countr_zero(m)].rank;
    }
    bool allocated = false;
    // Ranked passes over the ranks present: CPU before GPU, and within a
    // class (vnPriority) downstream virtual networks before upstream ones.
    for (; ranks != 0; ranks &= ranks - 1) {
        const int rank = std::countr_zero(ranks);
        for (int w = 0; w < words; ++w) {
            std::uint64_t m = routed[w] & ~active[w] & occ[w];
            while (m) {
                const int key = w * 64 + std::countr_zero(m);
                m &= m - 1;
                InVc &ivc = in_[key];
                if (ivc.rank != rank)
                    continue;
                for (int ov = 0; ov < numVcs_; ++ov) {
                    if (!(ivc.vcMask & (1u << ov)))
                        continue;
                    OutVc &ovc = out_[ivc.outPort * numVcs_ + ov];
                    if (ovc.ownerIn >= 0)
                        continue;
                    ovc.ownerIn = key;
                    ivc.outVc = static_cast<std::int16_t>(ov);
                    active[w] |= keyBit(key);
                    allocated = true;
                    break;
                }
            }
        }
    }
    return allocated;
}

bool
Router::outVcHasSpace(int port, int vc, NodeId node) const
{
    if (portIsLink_[port])
        return out_[port * numVcs_ + vc].credits > 0;
    return env_.nodeEjectFree(node) > 0;
}

template <int W>
bool
Router::switchAllocate(Cycle now)
{
    // Grant one crossbar traversal per output and per input (separable
    // allocation). Requests are bucketed per output port up front from
    // the active-VC mask; outputs with no requesters are skipped with a
    // single test. The best-candidate comparison (arbitration rank
    // first — CPU before GPU, then VN rank when vnPriority is on —
    // then rotation distance, unique per key) is order-independent, so
    // the grants match an exhaustive port x VC scan exactly.
    const int words = W ? W : keyWords_;
    const std::uint64_t *occ = keySets_.data();
    const std::uint64_t *active = occ + 2 * words;
    int requesters = 0;
    int lone = -1;
    for (int w = 0; w < words; ++w) {
        const std::uint64_t m = active[w] & occ[w];
        requesters += std::popcount(m);
        if (m)
            lone = w * 64 + std::countr_zero(m);
    }
    bool granted = false;
    if (requesters == 1) {
        // Nothing contends: make the full pass's throttle and space
        // checks on the lone requester's port, then grant it.
        const int port = in_[lone].outPort;
        const bool throttled = hasThrottle_ && now < portNextFree_[port];
        throttledWait_ = throttledWait_ || throttled;
        granted = !throttled &&
                  outVcHasSpace(port, in_[lone].outVc, portNode_[port]);
        if (granted)
            grantTraversal(lone, port, now);
    }
    if (requesters <= 1) {
        rotateSaOffset();
        return granted;
    }
    std::fill(saReq_.begin(), saReq_.end(), 0);
    std::fill(saUsed_.begin(), saUsed_.end(), 0);
    std::uint64_t *used = saUsed_.data();
    for (int w = 0; w < words; ++w) {
        for (std::uint64_t m = active[w] & occ[w]; m != 0; m &= m - 1) {
            const int key = w * 64 + std::countr_zero(m);
            saReq_[in_[key].outPort * words + w] |= keyBit(key);
        }
    }

    const int keys = numPorts_ * numVcs_;
    for (int i = 0, outPort = saOffset_; i < numPorts_; ++i) {
        if (i > 0 && ++outPort == numPorts_)
            outPort = 0;
        const std::uint64_t *req = &saReq_[outPort * words];
        if (hasThrottle_ && now < portNextFree_[outPort]) {
            // Narrow link still serializing the previous flit. A pass
            // that only lost grants to throttling must stay awake: the
            // port frees by the passage of time alone.
            if (anyKey(req, words))
                throttledWait_ = true;
            continue;
        }
        int best = -1;
        int bestRank = 0;
        int bestDist = 0;
        for (int w = 0; w < words; ++w) {
            for (std::uint64_t m = req[w] & ~used[w]; m != 0; m &= m - 1) {
                const int key = w * 64 + std::countr_zero(m);
                const InVc &ivc = in_[key];
                if (!outVcHasSpace(outPort, ivc.outVc,
                                   portNode_[outPort]))
                    continue;
                int dist = key - rrPtr_[outPort];
                if (dist < 0)
                    dist += keys;
                if (best < 0 || ivc.rank < bestRank ||
                    (ivc.rank == bestRank && dist < bestDist)) {
                    best = key;
                    bestRank = ivc.rank;
                    bestDist = dist;
                }
            }
        }
        if (best < 0)
            continue;

        granted = true;
        // The granted input port sends nothing else this cycle: mark
        // all its VC keys (numVcs_ <= 8 bits, possibly across a word).
        const int first = best - best % numVcs_;
        const std::uint64_t portKeys = (std::uint64_t{1} << numVcs_) - 1;
        used[first / 64] |= portKeys << (first % 64);
        if (first % 64 + numVcs_ > 64)
            used[first / 64 + 1] |= portKeys >> (64 - first % 64);
        grantTraversal(best, outPort, now);
    }
    rotateSaOffset();
    return granted;
}

void
Router::grantTraversal(int key, int outPort, Cycle now)
{
    rrPtr_[outPort] = key + 1 == numPorts_ * numVcs_ ? 0 : key + 1;
    if (hasThrottle_ && portInterval_[outPort] > 1)
        portNextFree_[outPort] =
            now + static_cast<Cycle>(portInterval_[outPort]);
    InVc &ivc = in_[key];
    Flit flit = ivc.buf.front();
    ivc.buf.pop_front();
    if (ivc.buf.empty())
        keySets_[key / 64] &= ~keyBit(key);
    --bufferedCount_;

    // The flit leaves on the allocated output VC after traversing
    // the remaining pipeline stages plus one cycle of link latency.
    const int outVc = ivc.outVc;
    flit.vc = static_cast<std::uint8_t>(outVc);
    const Cycle arrive = now + static_cast<Cycle>(stages_ - 1) + 1;
    ++stats_.switchTraversals;
    if (stats_.portFlitsSent.empty())
        stats_.portFlitsSent.assign(numPorts_, 0);
    ++stats_.portFlitsSent[outPort];

    if (portIsLink_[outPort]) {
        DR_INVARIANT(out_[outPort * numVcs_ + outVc].credits > 0,
                     "router ", id_, " port ", outPort, " vc ", outVc,
                     " switch traversal without a credit");
        --out_[outPort * numVcs_ + outVc].credits;
    } else {
        env_.nodeEjectReserve(portNode_[outPort]);
    }
    env_.deliverToRouter(id_, outPort, flit, arrive);

    // Return buffer credit to whoever feeds this input port.
    env_.creditToFeeder(id_, key / numVcs_, key % numVcs_, now + 1);

    if (flit.tail) {
        out_[outPort * numVcs_ + outVc].ownerIn = -1;
        ivc.outPort = -1;
        ivc.outVc = -1;
        keySets_[keyWords_ + key / 64] &= ~keyBit(key);
        keySets_[2 * keyWords_ + key / 64] &= ~keyBit(key);
    }
}

template <int W>
void
Router::allocate(Cycle now)
{
    throttledWait_ = false;
    const bool routed = routeCompute<W>();
    const bool allocated = vcAllocate<W>();
    const bool granted = switchAllocate<W>(now);
    quiescent_ = !routed && !allocated && !granted && !throttledWait_;
}

void
Router::tick(Cycle now)
{
    DR_STAMP_WRITE(*this);
    // Idle fast path: nothing buffered (this cycle's arrivals are
    // already applied).
    if (idle())
        return;
    if (quiescent_) {
        // Stalled: the last pass changed nothing and no input has
        // changed since, so this pass would also change nothing. Only
        // the rotating arbitration offset advances (as a grant-less
        // switchAllocate would have advanced it).
        rotateSaOffset();
        return;
    }
    if (keyWords_ == 1)
        allocate<1>(now);
    else
        allocate<0>(now);
}

void
Router::setPortSerialization(int port, int interval)
{
    if (interval < 1)
        fatal("router ", id_, ": serialization interval must be >= 1");
    portInterval_[port] = interval;
    hasThrottle_ = false;
    for (const int iv : portInterval_)
        hasThrottle_ = hasThrottle_ || iv > 1;
}

int
Router::freeCredits(int port) const
{
    int total = 0;
    for (int v = 0; v < numVcs_; ++v)
        total += out_[port * numVcs_ + v].credits;
    return total;
}

void
Router::debugDump(std::ostream &os) const
{
    for (int p = 0; p < numPorts_; ++p) {
        for (int v = 0; v < numVcs_; ++v) {
            const InVc &ivc = in_[p * numVcs_ + v];
            if (ivc.buf.empty() && ivc.outPort < 0)
                continue;
            os << "R" << id_ << " in[" << p << "][" << v << "] buf="
               << ivc.buf.size() << " outPort=" << ivc.outPort
               << " outVc=" << ivc.outVc;
            if (!ivc.buf.empty()) {
                os << " frontPkt=" << ivc.buf.front().pkt
                   << (ivc.buf.front().head ? "H" : "")
                   << (ivc.buf.front().tail ? "T" : "");
            }
            os << "\n";
        }
    }
    for (int p = 0; p < numPorts_; ++p) {
        os << "R" << id_ << " out[" << p << "] credits:";
        for (int v = 0; v < numVcs_; ++v)
            os << " " << out_[p * numVcs_ + v].credits << "(o"
               << out_[p * numVcs_ + v].ownerIn << ")";
        os << "\n";
    }
}

int
Router::bufferedFlits() const
{
    int total = 0;
    for (const InVc &vc : in_)
        total += static_cast<int>(vc.buf.size());
    return total;
}

std::vector<BlockedHead>
Router::blockedHeads() const
{
    std::vector<BlockedHead> heads;
    for (int p = 0; p < numPorts_; ++p) {
        for (int v = 0; v < numVcs_; ++v) {
            const InVc &ivc = in_[p * numVcs_ + v];
            if (ivc.buf.empty())
                continue;
            BlockedHead head;
            head.router = id_;
            head.inPort = p;
            head.inVc = v;
            head.outPort = ivc.outPort;
            head.outVc = ivc.outVc;
            head.pkt = ivc.buf.front().pkt;
            head.destRouter = ivc.buf.front().destRouter;
            head.buffered = static_cast<int>(ivc.buf.size());
            heads.push_back(head);
        }
    }
    return heads;
}

} // namespace dr

#include "noc/router.hpp"

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

/** Bit of `key` within its 64-bit key-set word. */
constexpr std::uint64_t
keyBit(int key)
{
    return std::uint64_t{1} << (key % 64);
}

/** What a router reads as the ejection space of a port with no node. */
constexpr int kNoEjectionSpace = 0;

} // namespace

Router::Router(int id, int numPorts, int numVcs, int vcDepth, int stages,
               RouterEnv &env,
               const std::vector<std::uint8_t> &portIsLink,
               std::vector<const int *> portEjFree, bool vnPriority)
    : id_(id), numPorts_(numPorts), numVcs_(numVcs), vcDepth_(vcDepth),
      stages_(stages), vnPriority_(vnPriority),
      env_(env), portIsLink_(portIsLink), portEjFree_(std::move(portEjFree)),
      in_(static_cast<std::size_t>(numPorts) * numVcs),
      out_(static_cast<std::size_t>(numPorts) * numVcs),
      ringShift_(std::bit_width(std::bit_ceil(
                     static_cast<unsigned>(std::max(vcDepth, 1)))) - 1),
      ringMask_((1 << ringShift_) - 1),
      keyWords_((numPorts * numVcs + 63) / 64),
      rrPtr_(numPorts, 0),
      saScratch_(keyWords_ > 1 ? (numPorts + 1) * keyWords_ : 0),
      portInterval_(numPorts, 1),
      portNextFree_(numPorts, 0),
      keySets_(3 * static_cast<std::size_t>(keyWords_), 0)
{
    if (numVcs_ > 8)
        fatal("at most 8 VCs supported (VC masks are 8 bits)");
    if (vcDepth_ < 1 || vcDepth_ > 32768)
        fatal("router VC depth must be in [1, 32768] flits, got ", vcDepth_);
    if (stages_ < 1)
        fatal("router pipeline needs at least one stage, got ", stages_);
    for (OutVc &ovc : out_)
        ovc.credits = vcDepth;
    for (int key = 0; key < numPorts_ * numVcs_; ++key)
        in_[key].port = static_cast<std::int16_t>(key / numVcs_);
    for (const int *&ejFree : portEjFree_)
        ejFree = ejFree ? ejFree : &kNoEjectionSpace;
    flits_.resize(in_.size() << ringShift_);
    grants_.reserve(static_cast<std::size_t>(numPorts_));
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
            const Flit &head = front(key);
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

template <int W>
bool
Router::switchAllocate(Cycle now)
{
    // Grant one crossbar traversal per output and per input (separable
    // allocation), visiting only requested outputs. The best-candidate
    // comparison (arbitration rank first — CPU before GPU, then VN rank
    // when vnPriority is on — then rotation distance, unique per key) is
    // order-independent, so the grants match an exhaustive port x VC
    // scan exactly.
    const int words = W ? W : keyWords_;
    const std::uint64_t *occ = keySets_.data();
    const std::uint64_t *active = occ + 2 * words;
    // Requesters counted as none, one or several: a popcount would be
    // a library call on baseline x86-64.
    int requesters = 0;
    int lone = -1;
    for (int w = 0; w < words; ++w) {
        const std::uint64_t m = active[w] & occ[w];
        requesters += (m != 0) + ((m & (m - 1)) != 0);
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
        granted = !throttled && outVcHasSpace(port, in_[lone].outVc);
        if (granted)
            grantTraversal(lone, port, now);
    }
    if (requesters <= 1) {
        rotateSaOffset();
        return granted;
    }
    // Per-output request words, then the keys of the input ports
    // granted this pass: on the stack for one-word routers (at most 64
    // ports), else in saScratch_.
    std::uint64_t stackScratch[W == 1 ? 65 : 1];
    std::uint64_t *req = W == 1 ? stackScratch : saScratch_.data();
    std::fill_n(req, (numPorts_ + 1) * words, 0);
    std::uint64_t *used = req + numPorts_ * words;
    std::uint64_t reqPorts = 0;  // one-word routers: requested outputs
    for (int w = 0; w < words; ++w) {
        for (std::uint64_t m = active[w] & occ[w]; m != 0; m &= m - 1) {
            const int key = w * 64 + std::countr_zero(m);
            const int port = in_[key].outPort;
            req[port * words + w] |= keyBit(key);
            if constexpr (W == 1)
                reqPorts |= std::uint64_t{1} << port;
        }
    }

    // Grant output `outPort` to its best requester whose output VC can
    // take a flit, reading the output's space once.
    const int keys = numPorts_ * numVcs_;
    const auto serve = [&](int outPort) {
        if (hasThrottle_ && now < portNextFree_[outPort]) {
            // Narrow link still serializing the previous flit. A pass
            // that only lost grants to throttling must stay awake: the
            // port frees by the passage of time alone.
            throttledWait_ = true;
            return;
        }
        // The output VCs that can take a flit: those holding a
        // downstream credit on a link, all of them while the attached
        // node has ejection space.
        unsigned spaceVcs = 0;
        if (portIsLink_[outPort]) {
            const OutVc *ovc = &out_[outPort * numVcs_];
            for (int v = 0; v < numVcs_; ++v)
                spaceVcs |= static_cast<unsigned>(ovc[v].credits > 0) << v;
        } else if (*portEjFree_[outPort] > 0) {
            spaceVcs = ~0u;
        }
        const std::uint64_t *portReq = &req[outPort * words];
        int best = -1;
        int bestRank = 0;
        int bestDist = 0;
        for (int w = 0; spaceVcs && w < words; ++w) {
            for (std::uint64_t m = portReq[w] & ~used[w]; m != 0;
                 m &= m - 1) {
                const int key = w * 64 + std::countr_zero(m);
                const InVc &ivc = in_[key];
                if (!(spaceVcs >> ivc.outVc & 1))
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
            return;
        granted = true;
        // The granted input port sends nothing else this cycle: mark
        // all its VC keys (numVcs_ <= 8 bits, possibly across a word).
        const int first = in_[best].port * numVcs_;
        const std::uint64_t portKeys = (std::uint64_t{1} << numVcs_) - 1;
        used[first / 64] |= portKeys << (first % 64);
        if (W != 1 && first % 64 + numVcs_ > 64)
            used[first / 64 + 1] |= portKeys >> (64 - first % 64);
        grantTraversal(best, outPort, now);
    };

    // Visit the requested outputs in rotation order, from saOffset_ on:
    // a one-word router walks the bits of those from saOffset_ up, then
    // of those below it.
    if constexpr (W == 1) {
        std::uint64_t below =
            reqPorts & ((std::uint64_t{1} << saOffset_) - 1);
        for (std::uint64_t ports = reqPorts ^ below; ports | below;
             ports &= ports - 1) {
            if (!ports)
                std::swap(ports, below);
            serve(std::countr_zero(ports));
        }
    } else {
        for (int i = 0; i < numPorts_; ++i) {
            const int outPort = (saOffset_ + i) % numPorts_;
            const std::uint64_t *portReq = req + outPort * words;
            if (std::any_of(portReq, portReq + words,
                            [](std::uint64_t w) { return w != 0; }))
                serve(outPort);
        }
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
    Grant &grant = grants_.emplace_back();
    grant.flit = front(key);
    ivc.head = static_cast<std::uint16_t>((ivc.head + 1) & ringMask_);
    if (--ivc.count == 0)
        keySets_[key / 64] &= ~keyBit(key);
    --bufferedCount_;

    // The flit leaves on the allocated output VC; the Network delivers
    // it at flitDue(now) and returns the input slot's credit upstream.
    const int outVc = ivc.outVc;
    grant.flit.vc = static_cast<std::uint8_t>(outVc);
    grant.outPort = static_cast<std::int16_t>(outPort);
    grant.inPort = ivc.port;
    grant.inVc = static_cast<std::uint8_t>(key - ivc.port * numVcs_);
    ++stats_.switchTraversals;
    if (stats_.portFlitsSent.empty())
        stats_.portFlitsSent.assign(numPorts_, 0);
    ++stats_.portFlitsSent[outPort];

    if (portIsLink_[outPort]) {
        DR_INVARIANT(out_[outPort * numVcs_ + outVc].credits > 0,
                     "router ", id_, " port ", outPort, " vc ", outVc,
                     " switch traversal without a credit");
        --out_[outPort * numVcs_ + outVc].credits;
    }

    if (grant.flit.tail) {
        out_[outPort * numVcs_ + outVc].ownerIn = -1;
        ivc.outPort = -1;
        ivc.outVc = -1;
        vcFreed_ = true;
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
    // A VC allocation pass leaves every waiting head without a free VC
    // in its mask, so the next one can only succeed for a newly routed
    // head or after a tail has freed an output VC.
    const bool allocated = (routed || vcFreed_) && vcAllocate<W>();
    vcFreed_ = false;
    const bool granted = switchAllocate<W>(now);
    quiescent_ = !routed && !allocated && !granted && !throttledWait_;
}

void
Router::tick(Cycle now)
{
    DR_STAMP_WRITE(*this);
    grants_.clear();
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
Router::debugDump(std::ostream &os,
                  const std::function<PacketId(PacketHandle)> &packetId) const
{
    for (int p = 0; p < numPorts_; ++p) {
        for (int v = 0; v < numVcs_; ++v) {
            const int key = p * numVcs_ + v;
            const InVc &ivc = in_[key];
            if (ivc.count == 0 && ivc.outPort < 0)
                continue;
            os << "R" << id_ << " in[" << p << "][" << v << "] buf="
               << ivc.count << " outPort=" << ivc.outPort
               << " outVc=" << ivc.outVc;
            if (ivc.count > 0) {
                const Flit &flit = front(key);
                os << " frontPkt=" << packetId(flit.slot)
                   << (flit.head ? "H" : "") << (flit.tail ? "T" : "");
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
        total += vc.count;
    return total;
}

std::vector<BlockedHead>
Router::blockedHeads() const
{
    std::vector<BlockedHead> heads;
    for (int p = 0; p < numPorts_; ++p) {
        for (int v = 0; v < numVcs_; ++v) {
            const int key = p * numVcs_ + v;
            const InVc &ivc = in_[key];
            if (ivc.count == 0)
                continue;
            heads.push_back({.router = id_, .inPort = p, .inVc = v,
                             .outPort = ivc.outPort, .outVc = ivc.outVc,
                             .slot = front(key).slot,
                             .destRouter = front(key).destRouter,
                             .buffered = ivc.count});
        }
    }
    return heads;
}

} // namespace dr

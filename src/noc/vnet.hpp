#ifndef DR_NOC_VNET_HPP
#define DR_NOC_VNET_HPP

/**
 * @file
 * Virtual-network (message-class) subsystem. Every protocol message
 * belongs to exactly one virtual network; each VN owns a reserved,
 * contiguous range of the physical VCs so that one class can never
 * starve another of buffering — the structural fix for the
 * shared-request-network fan-in clog of DESIGN.md §10 (delegations
 * filling a core's FRQ plus the request network and starving the FRQ
 * head's DNF re-send).
 *
 * The four VNs and their message-dependency order (an edge means "may
 * have to wait for"):
 *
 *   ForwardedRequest  -> Request, DelegatedReply
 *   Request           -> Reply, DelegatedReply
 *   Reply             -> (sink)
 *   DelegatedReply    -> (sink)
 *
 * ForwardedRequest carries LLC->core delegations (DelegatedReq); a
 * stalled forward waits only on the target core's FRQ, whose head
 * drains into Request (DNF re-send) or DelegatedReply (remote-hit
 * reply). Request carries ordinary reads/writes/probes *and* DNF
 * re-sends — deliberately NOT the ForwardedRequest VN: a DNF re-send
 * sharing buffering with the delegation fan-in that caused it
 * re-creates the §10 cycle. Request drains into Reply or, when the LLC
 * converts a reply into a delegation, falls back to the normal reply
 * path when the forward VN is full (mem_node.cpp), so Request never
 * hard-blocks on ForwardedRequest. Reply and DelegatedReply are
 * consumed unconditionally at the endpoints. The order is acyclic,
 * which with per-VN VC reservation makes the message-class dependency
 * graph deadlock-free; drverify proves it on the `shared-net-clog`
 * config and re-finds the hazard when the VNs are collapsed
 * (`shared-vnet` mutant).
 */

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace dr
{

struct NocConfig;

/** The protocol's virtual networks (message classes). */
enum class VirtualNet : std::uint8_t
{
    Request = 0,          //!< reads/writes/probes, incl. DNF re-sends
    ForwardedRequest = 1, //!< LLC->core delegations (DelegatedReq)
    Reply = 2,            //!< memory/LLC replies and write acks
    DelegatedReply = 3,   //!< core-to-core replies (remote hits, nacks)
};

constexpr int numVnets = 4;

const char *vnetName(VirtualNet vn);

/**
 * Registry: the VN a message travels on. Replies need the sender kind
 * because a ReadReply from a memory node is an ordinary Reply while the
 * same type sent core-to-core (a delegated remote hit) rides the
 * DelegatedReply VN.
 */
VirtualNet classifyMessage(const Message &msg, bool srcIsMemNode);

/**
 * Classification when the sender kind is unknown (raw Network kernel
 * users: benches, synthetic traffic). Replies default to the Reply VN.
 */
inline VirtualNet
defaultVnet(const Message &msg)
{
    return classifyMessage(msg, /*srcIsMemNode=*/true);
}

/** A contiguous range of VCs reserved for one VN. */
struct VcRange
{
    std::uint8_t base = 0;
    std::uint8_t count = 0;
};

/**
 * Per-network VC partition: which VC range each VN may use. Ranges may
 * alias (VNs collapsed onto the same VCs) — the legacy shared-network
 * request/reply split is expressed as two aliased pairs. An empty
 * layout (numVcs == 0) means "uniform": every VN may use every VC.
 */
struct VnetLayout
{
    std::array<VcRange, numVnets> range{};
    int numVcs = 0;

    bool empty() const { return numVcs == 0; }

    /** Bitmask of the VCs the given VN may use. */
    std::uint8_t mask(VirtualNet vn) const
    {
        const VcRange &r = range[static_cast<int>(vn)];
        return static_cast<std::uint8_t>(((1u << r.count) - 1u) << r.base);
    }

    /** All VNs share all `numVcs` VCs. */
    static VnetLayout uniform(int numVcs);
};

/**
 * Layout builders from the system NoC config. With `noc.vnets` off they
 * reproduce the legacy behaviour exactly (schedule-preserving): the
 * split physical networks give every VN the full VC range and the
 * shared network aliases Request/ForwardedRequest onto the first
 * `sharedReqVcs` VCs and Reply/DelegatedReply onto the rest. With
 * `noc.vnets` on each VN gets its own disjoint range from the
 * `noc.vnet*Vcs` keys (validated in NocConfig::validate).
 */
VnetLayout requestNetLayout(const NocConfig &noc);
VnetLayout replyNetLayout(const NocConfig &noc);
VnetLayout sharedNetLayout(const NocConfig &noc);

/**
 * Arbitration rank of a (class, VN) pair; lower wins. With vnPriority
 * off the rank is the traffic class alone (CPU beats GPU — the legacy
 * order, bit-identical schedules). With it on, ties within a class
 * break by VN: replies and delegated replies (sinks) first, then
 * forwards, then fresh requests — draining downstream classes first
 * frees buffering the upstream classes are waiting on.
 */
inline int
vnetRank(VirtualNet vn)
{
    switch (vn) {
      case VirtualNet::Reply: return 0;
      case VirtualNet::DelegatedReply: return 1;
      case VirtualNet::ForwardedRequest: return 2;
      case VirtualNet::Request: return 3;
    }
    return 3;
}

inline int
arbRank(TrafficClass cls, VirtualNet vn, bool vnPriority)
{
    const int clsIdx = cls == TrafficClass::Cpu ? 0 : 1;
    return vnPriority ? clsIdx * numVnets + vnetRank(vn) : clsIdx;
}

} // namespace dr

#endif // DR_NOC_VNET_HPP

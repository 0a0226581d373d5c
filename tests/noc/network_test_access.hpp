#ifndef DR_TESTS_NOC_NETWORK_TEST_ACCESS_HPP
#define DR_TESTS_NOC_NETWORK_TEST_ACCESS_HPP

/**
 * @file
 * The one test seam into Network, Router and TickPool internals
 * (DESIGN.md §12). Fault-injection and phase-ownership tests break the
 * engine's rules through these calls, and the cycle-structure test
 * counts pool runs, so the engine itself carries no test-only paths.
 */

#include <cstdint>

#include "common/log.hpp"
#include "noc/network.hpp"

namespace dr
{

struct NetworkTestAccess
{
    /** Run niEject on `node`'s NI as `domain`'s worker would. */
    static void
    niEject(Network &net, int domain, NodeId node, Cycle now)
    {
        net.niEject(net.domains_[domain], net.nis_[node], now);
    }

    /** Push a flit straight into the receiving router's domain wheel,
     *  skipping the sender's outgoing list. */
    static void
    scheduleFlit(Network &net, int router, int port, const Flit &flit,
                 Cycle when)
    {
        net.scheduleArrival(net.domains_[net.routerDomain_[router]],
                            {when, static_cast<std::int16_t>(router),
                             static_cast<std::int16_t>(port), false, flit});
    }

    /**
     * Drop (`copies` = 0) or duplicate (`copies` = 2) the first credit
     * in flight toward a router output VC whose sender — the router on
     * the far side of the link — is in the same domain as the receiver
     * (`crossDomain` false) or in another one (true), as a lost or
     * doubled credit return would. Call between ticks, when every
     * credit sits in a wheel. Returns false when no such credit is in
     * flight.
     */
    static bool
    tamperCredit(Network &net, bool crossDomain, int copies)
    {
        for (Network::Domain &d : net.domains_) {
            for (Network::WheelSlot &slot : d.wheel) {
                for (std::size_t i = 0; i < slot.credits.size(); ++i) {
                    const Network::Credit c = slot.credits[i];
                    if (c.toNi)
                        continue;
                    const PortConn &conn = net.topo_.port(c.to, c.port);
                    const bool crosses = net.routerDomain_[conn.peerRouter] !=
                                         net.routerDomain_[c.to];
                    if (crosses != crossDomain)
                        continue;
                    if (copies == 0) {
                        slot.credits.erase(slot.credits.begin() +
                                           static_cast<std::ptrdiff_t>(i));
                        --d.wheelArrivals;
                    } else {
                        slot.credits.push_back(c);
                        ++d.wheelArrivals;
                    }
                    return true;
                }
            }
        }
        return false;
    }

    /** Whether a router is in its domain's active set. */
    static bool
    routerActive(const Network &net, int router)
    {
        return net.domains_[net.routerDomain_[router]].activeRouters
            .contains(router);
    }

    /** Whether a node's NI is in its domain's active set. */
    static bool
    niActive(const Network &net, NodeId node)
    {
        return net.domains_[net.nodeDomain_[node]].activeNis.contains(node);
    }

    /** Take a slot of `domain`'s packet pool. */
    static PacketHandle
    allocPacket(Network &net, int domain)
    {
        return net.domains_[domain].pool.alloc();
    }

    /** Give a packet-pool slot back, as its domain's compute run does
     *  with the slots the merge listed. */
    static void
    releasePacket(Network &net, PacketHandle h)
    {
        net.domains_[PacketPool::ownerOf(h)].pool.release(h);
    }

    /** Record `writer` as the last writer of `node`'s NI without a
     *  checked write: what a path that dodged DR_STAMP_WRITE leaves. */
    static void
    forgeNiWriter(Network &net, NodeId node, int writer)
    {
        net.nis_[node].drStamp_.writer = static_cast<std::int16_t>(writer);
    }

    /** Runs a multi-domain pool has published so far (a one-domain
     *  pool calls its job inline and counts nothing). */
    static std::uint64_t
    poolRuns(const TickPool &pool)
    {
        return pool.epoch_.load(std::memory_order_relaxed);
    }

    /** Runs of a standalone network's own pool (0 before its first
     *  tick starts it). */
    static std::uint64_t
    poolRuns(const Network &net)
    {
        return net.tickPool_ ? poolRuns(*net.tickPool_) : 0;
    }

    /**
     * Discard one downstream credit of a router output VC, as a buggy
     * allocator double-decrement would; panics when none is left. The
     * credit conservation checker must detect the resulting leak.
     */
    static void
    leakCredit(Network &net, int router, int port, int vc)
    {
        Router &r = *net.routers_[router];
        int &credits = r.out_[port * r.numVcs_ + vc].credits;
        if (credits <= 0)
            panic("leakCredit: no credit to leak on router ", router,
                  " port ", port, " vc ", vc);
        --credits;
    }

    /** Discard one attach-link credit an NI holds; panics when none is
     *  left. The NI branch of the credit checker must catch it. */
    static void
    leakNiCredit(Network &net, NodeId node, int vc)
    {
        int &credits = net.nis_[node].credits[vc];
        if (credits <= 0)
            panic("leakNiCredit: no credit to leak on NI ", node, " vc ",
                  vc);
        --credits;
    }

    /** Take one ejection slot of a node without a flit to fill it, as a
     *  stray reservation would. */
    static void
    leakEjectSlot(Network &net, NodeId node)
    {
        --net.nis_[node].ejFree;
    }
};

} // namespace dr

#endif // DR_TESTS_NOC_NETWORK_TEST_ACCESS_HPP

#include "debug/progress_watchdog.hpp"

#include <iostream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/log.hpp"
#include "noc/interconnect.hpp"
#include "noc/network.hpp"

namespace dr
{

ProgressWatchdog::ProgressWatchdog(const Interconnect &ic,
                                   const WatchdogParams &params)
    : ic_(ic), params_(params)
{
    if (params_.stallCycles == 0)
        fatal("watchdog: stallCycles must be positive");
}

void
ProgressWatchdog::setExtraDump(std::function<void(std::ostream &)> dump)
{
    extraDump_ = std::move(dump);
}

bool
ProgressWatchdog::observe(Cycle now, std::uint64_t signature)
{
    ++observations_;
    if (!seeded_ || signature != lastSignature_) {
        seeded_ = true;
        lastSignature_ = signature;
        lastProgress_ = now;
        return false;
    }
    if (now - lastProgress_ < params_.stallCycles)
        return false;

    ++stalls_;
    reportStall(now, std::cerr);
    if (params_.abortOnStall) {
        panic("watchdog: no forward progress for ", now - lastProgress_,
              " cycles (since cycle ", lastProgress_,
              "); router state dumped above");
    }
    lastProgress_ = now;  // re-arm so the next window is measured afresh
    return true;
}

void
ProgressWatchdog::dumpBlockedChain(const Network &net,
                                   std::ostream &os) const
{
    const Topology &topo = net.topology();

    // Start from the most congested router and follow each blocked head
    // to the router (or ejection buffer) it waits on. A revisited router
    // closes the wait-for cycle — the signature of a true deadlock.
    int start = -1;
    int worst = 0;
    for (int r = 0; r < topo.routers(); ++r) {
        const auto heads = net.blockedHeads(r);
        int buffered = 0;
        for (const auto &head : heads)
            buffered += head.buffered;
        if (buffered > worst) {
            worst = buffered;
            start = r;
        }
    }
    if (start < 0) {
        os << "  no blocked flits in network '" << net.name() << "'\n";
        return;
    }

    os << "  blocked-flit dependency chain (network '" << net.name()
       << "'):\n";
    std::set<int> visited;
    int router = start;
    for (int hop = 0; hop <= topo.routers(); ++hop) {
        const auto heads = net.blockedHeads(router);
        if (heads.empty()) {
            os << "    R" << router << ": no blocked heads (waiting on "
               << "arrivals in flight)\n";
            return;
        }
        // Follow the fullest VC — the one most likely on the deadlock
        // cycle.
        const BlockedHead *pick = &heads.front();
        for (const auto &head : heads) {
            if (head.buffered > pick->buffered)
                pick = &head;
        }
        // The producing domain id localizes a stuck chain to a tick
        // worker: a wait-for edge that crosses domains goes through the
        // sender's outgoing list and the serial merge, one that stays
        // inside a domain is scheduled directly (DESIGN.md §11).
        os << "    R" << router << "/d" << net.domainOfRouter(router)
           << " in[" << pick->inPort << "][" << pick->inVc
           << "] pkt=" << pick->pkt << " (" << pick->buffered
           << " flits) -> ";
        if (pick->outPort < 0) {
            os << "unrouted\n";
            return;
        }
        const PortConn &conn = topo.port(router, pick->outPort);
        if (conn.kind == PortConn::Kind::Node) {
            os << "ejection at node " << conn.node << " (ejFree="
               << net.nodeEjectFree(conn.node) << ")\n";
            return;
        }
        if (conn.kind == PortConn::Kind::None) {
            os << "unconnected port " << pick->outPort << "\n";
            return;
        }
        os << "R" << conn.peerRouter << "/d"
           << net.domainOfRouter(conn.peerRouter) << " port "
           << conn.peerPort << " vc " << pick->outVc << "\n";
        if (!visited.insert(router).second) {
            os << "    cycle closed at R" << router
               << " — wait-for loop (credit leak or protocol deadlock)\n";
            return;
        }
        router = conn.peerRouter;
    }
}

void
ProgressWatchdog::dumpNetwork(const Network &net, std::ostream &os) const
{
    os << "network '" << net.name() << "': " << net.routerOccupancy()
       << " flits buffered in routers, "
       << net.conservedFlitsInjected() - net.conservedFlitsEjected()
       << " flits in flight\n";
    net.debugDump(os);
    dumpBlockedChain(net, os);
}

void
ProgressWatchdog::reportStall(Cycle now, std::ostream &os) const
{
    os << "=== watchdog: no forward progress at cycle " << now
       << " (last progress at " << lastProgress_ << ") ===\n";
    dumpNetwork(ic_.net(NetKind::Request), os);
    if (!ic_.shared())
        dumpNetwork(ic_.net(NetKind::Reply), os);
    if (extraDump_)
        extraDump_(os);
    os << "=== end watchdog dump ===" << std::endl;
}

} // namespace dr

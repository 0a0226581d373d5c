#include "core/stats_report.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/format.hpp"
#include "common/log.hpp"

namespace dr
{

void
StatsReport::add(std::string path, double value)
{
    entries_.push_back({std::move(path), value});
}

StatsReport
StatsReport::capture(const HeteroSystem &system, Cycle measuredCycles)
{
    StatsReport report;
    const RunResults r = system.collect(measuredCycles);

    report.add("sim.cycles", static_cast<double>(measuredCycles));
    report.add("sim.gpuIpc", r.gpuIpc);
    report.add("sim.cpuIpc", r.cpuIpc);
    report.add("sim.cpuLatency", r.cpuLatency);
    report.add("sim.gpuDataRate", r.gpuDataRate);
    report.add("sim.memBlockingRate", r.memBlockingRate);
    report.add("sim.gpuL1MissRate", r.gpuL1MissRate);
    report.add("sim.llcHitRate", r.llcHitRate);
    report.add("sim.remoteCopyFraction", r.remoteCopyFraction());
    report.add("sim.forwardedFraction", r.forwardedFraction());
    report.add("sim.remoteHitRate", r.remoteHitRate());

    for (int i = 0; i < system.gpuCoreCount(); ++i) {
        const SmCoreStats &s = system.gpuCore(i).stats();
        std::ostringstream prefix;
        prefix << "gpu" << i << ".";
        const std::string p = prefix.str();
        report.add(p + "instructions", s.instructions.value());
        report.add(p + "loads", s.loads.value());
        report.add(p + "stores", s.stores.value());
        report.add(p + "l1Hits", s.l1Hits.value());
        report.add(p + "l1Misses", s.l1Misses.value());
        report.add(p + "mshrMerges", s.mshrMerges.value());
        report.add(p + "llcRequests", s.llcRequests.value());
        report.add(p + "frqReceived", s.frqReceived.value());
        report.add(p + "frqRemoteHits", s.frqRemoteHits.value());
        report.add(p + "frqDelayedHits", s.frqDelayedHits.value());
        report.add(p + "frqRemoteMisses", s.frqRemoteMisses.value());
        report.add(p + "probesSent", s.probesSent.value());
        report.add(p + "stallNoMshr", s.stallNoMshr.value());
        report.add(p + "stallInject", s.stallInject.value());
        report.add(p + "loadLatency", s.loadLatency.mean());
    }

    for (int i = 0; i < system.cpuCoreCount(); ++i) {
        const CpuNodeStats &s = system.cpuCore(i).stats();
        std::ostringstream prefix;
        prefix << "cpu" << i << ".";
        const std::string p = prefix.str();
        report.add(p + "retired", s.retired.value());
        report.add(p + "accesses", s.accesses.value());
        report.add(p + "l1Hits", s.l1Hits.value());
        report.add(p + "requestsSent", s.requestsSent.value());
        report.add(p + "blockedCycles", s.blockedCycles.value());
        report.add(p + "requestLatency", s.requestLatency.mean());
    }

    for (int i = 0; i < system.memNodeCount(); ++i) {
        const MemNode &node = system.memNode(i);
        std::ostringstream prefix;
        prefix << "mem" << i << ".";
        const std::string p = prefix.str();
        report.add(p + "requestsAccepted",
                   node.stats().requestsAccepted.value());
        report.add(p + "repliesSent", node.stats().repliesSent.value());
        report.add(p + "delegations", node.stats().delegations.value());
        report.add(p + "blockedCycles", node.stats().blockedCycles.value());
        report.add(p + "blockingRate", node.blockingRate());
        report.add(p + "llcHits", node.llcStats().hits.value());
        report.add(p + "llcMisses", node.llcStats().misses.value());
        report.add(p + "llcStallCycles", node.llcStats().stallCycles.value());
        report.add(p + "dramReads", node.dramStats().reads.value());
        report.add(p + "dramWrites", node.dramStats().writes.value());
        report.add(p + "dramRowHits", node.dramStats().rowHits.value());
    }

    for (const NetKind kind : {NetKind::Request, NetKind::Reply}) {
        const Network &net = system.interconnect().net(kind);
        const std::string p =
            kind == NetKind::Request ? "net.request." : "net.reply.";
        report.add(p + "packetsInjected", net.stats().packetsInjected.value());
        report.add(p + "packetsDelivered",
                   net.stats().packetsDelivered.value());
        report.add(p + "flitsDelivered", net.stats().flitsDelivered.value());
        report.add(p + "packetLatency", net.stats().packetLatency.mean());
        report.add(p + "cpuPacketLatency",
                   net.stats().cpuPacketLatency.mean());
        report.add(p + "gpuPacketLatency",
                   net.stats().gpuPacketLatency.mean());
        for (int vn = 0; vn < numVnets; ++vn) {
            const std::string vp =
                p + "vnet." + vnetName(static_cast<VirtualNet>(vn)) + ".";
            report.add(vp + "packetsInjected",
                       net.stats().vnPacketsInjected[vn].value());
            report.add(vp + "flitsDelivered",
                       net.stats().vnFlitsDelivered[vn].value());
            report.add(vp + "injectionStalls",
                       net.stats().vnInjectionStalls[vn].value());
            report.add(vp + "peakFlits", net.stats().vnPeakFlits[vn]);
            report.add(vp + "flitsPerCycle",
                       measuredCycles > 0
                           ? static_cast<double>(
                                 net.stats().vnFlitsDelivered[vn].value()) /
                                 static_cast<double>(measuredCycles)
                           : 0.0);
        }
        if (net.topology().kind() == TopologyKind::ChipletMesh) {
            // Interposer link class (chiplet meshes): hop count, peak
            // occupancy of the narrow links' downstream buffers, and
            // mean utilization per interposer link over the window.
            const std::string ip = p + "interposer.";
            const auto flits = net.stats().interposerFlits.value();
            report.add(ip + "flits", static_cast<double>(flits));
            report.add(ip + "peakFlits", net.stats().interposerPeakFlits);
            const int links = net.topology().interposerLinkCount();
            report.add(ip + "links", static_cast<double>(links));
            report.add(ip + "linkUtilization",
                       measuredCycles > 0 && links > 0
                           ? static_cast<double>(flits) /
                                 (static_cast<double>(links) *
                                  static_cast<double>(measuredCycles))
                           : 0.0);
        }
        if (system.interconnect().shared())
            break;  // one physical network
    }
    return report;
}

double
StatsReport::value(const std::string &path) const
{
    for (const auto &e : entries_) {
        if (e.path == path)
            return e.value;
    }
    fatal("stats: unknown path '", path, "'");
}

bool
StatsReport::has(const std::string &path) const
{
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const StatEntry &e) { return e.path == path; });
}

double
StatsReport::sum(const std::string &prefix) const
{
    double total = 0.0;
    for (const auto &e : entries_) {
        if (e.path.rfind(prefix, 0) == 0)
            total += e.value;
    }
    return total;
}

void
StatsReport::writeText(std::ostream &out) const
{
    for (const auto &e : entries_)
        writeNumber(out << e.path << " ", e.value) << "\n";
}

void
StatsReport::writeCsv(std::ostream &out) const
{
    out << "stat,value\n";
    for (const auto &e : entries_)
        writeNumber(out << e.path << ",", e.value) << "\n";
}

void
StatsReport::writeJson(std::ostream &out) const
{
    out << "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        writeNumber(out << "  \"" << entries_[i].path << "\": ",
                    entries_[i].value, "null")
            << (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    out << "}\n";
}

} // namespace dr

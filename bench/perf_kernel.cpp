/**
 * @file
 * Kernel-performance benchmark for the simulator itself (not a paper
 * figure): simulated cycles per wall-clock second of the raw Network
 * kernel under synthetic traffic (driveSyntheticLoad) and of the whole
 * chip under the paper configuration (runWorkload). Emits one JSON
 * object on stdout; `tools/run_perf_kernel.sh` wraps it into
 * `BENCH_noc_kernel.json` and the CI perf smoke job diffs the summary
 * against the committed baseline. The figure of merit bounds how large
 * a `DR_BENCH_CYCLES` horizon the paper benches can afford. Every
 * column pins its thread count; statistics are bit-identical across
 * thread counts (DESIGN.md §11), so only wall-clock moves.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "noc/network.hpp"
#include "noc/synthetic_traffic.hpp"

using namespace dr;

namespace
{

constexpr int meshWidth = 8;
constexpr int packetFlits = 5;

struct WorkloadResult
{
    const char *pattern;
    double rate;
    int threads;
    double wallSeconds;
    double cyclesPerSec;
    double flitHopsPerSec;
    std::uint64_t packetsDelivered;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(elapsed).count();
}

WorkloadResult
row(const char *name, double rate, int threads, Cycle cycles, double wall,
    std::uint64_t flitHops, std::uint64_t packets)
{
    const double perSec = wall > 0.0 ? 1.0 / wall : 0.0;
    return {name, rate, threads, wall, cycles * perSec, flitHops * perSec,
            packets};
}

/** The 8x8 mesh: XY routing, 36-flit injection buffers. With `vnets`,
 *  the virtual-network partition: 4 VCs, one per VN, (class, VN)
 *  arbitration. */
NetworkParams
meshParams(bool vnets)
{
    NetworkParams params;
    params.routing = RoutingKind::DimOrderXY;
    params.injBufferFlits.assign(meshWidth * meshWidth, 36);
    if (vnets) {
        params.numVcs = numVnets;
        params.vnPriority = true;
        params.layout.numVcs = numVnets;
        for (int vn = 0; vn < numVnets; ++vn)
            params.layout.range[vn] = {static_cast<std::uint8_t>(vn), 1};
    }
    return params;
}

/** The chiplet mesh's network: 3-phase hierarchical routing with its
 *  3-VC escalation, interposer links at half width. */
NetworkParams
chipletParams()
{
    NetworkParams params;
    params.routing = RoutingKind::ChipletHierarchical;
    params.numVcs = 3;
    params.injBufferFlits.assign(meshWidth * meshWidth, 36);
    params.interposerSerialization = 2;
    return params;
}

/**
 * One timed run of the raw Network kernel (no memory system) on
 * `threads` domains. Only the driver call is timed, not construction.
 */
WorkloadResult
timeNetwork(const char *name, const Topology &topo, NetworkParams params,
            TrafficPattern pattern, double rate, Cycle cycles,
            bool mixVnets, int threads)
{
    params.threads = threads;
    Network net(params, topo);
    const auto start = std::chrono::steady_clock::now();
    const SyntheticResult res =
        driveSyntheticLoad(net, pattern, meshWidth, rate, packetFlits,
                           cycles, /*seed=*/1, mixVnets);
    const double wall = secondsSince(start);
    return row(name, rate, threads, cycles, wall, net.totalLinkTraversals(),
               res.packetsDelivered);
}

/**
 * One timed end-to-end run of the full heterogeneous system (SM cores,
 * CPU cores, memory nodes, coherence — not just the NoC kernel) under
 * the paper configuration. `threads` drives both the NoC domain
 * workers and the endpoint compute phase (DESIGN.md §13). `l1Org`
 * selects the GPU L1 organization: the shared DC-L1 column exercises
 * the staged slice-port path (DESIGN.md §14), whose per-core banking
 * is what lets the endpoint phase stay parallel under sharing.
 */
WorkloadResult
timeE2eHetero(int threads, Cycle cycles,
              L1Organization l1Org = L1Organization::Private)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mechanism = Mechanism::DelegatedReplies;
    cfg.gpu.l1Org = l1Org;
    cfg.noc.threads = threads;
    cfg.warmupCycles = cycles / 10;
    cfg.simCycles = cycles;

    const auto start = std::chrono::steady_clock::now();
    const RunResults res = runWorkload(cfg, "HS", "blackscholes");
    const double wall = secondsSince(start);
    return row(l1Org == L1Organization::DcL1 ? "e2e_hetero_sharedL1"
                                             : "e2e_hetero",
               0.0, threads, cfg.warmupCycles + cfg.simCycles, wall,
               res.linkTraversals, res.requestsInjected);
}

long
peakRssKb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return usage.ru_maxrss;  // kilobytes on Linux
}

} // namespace

int
main()
{
    // Long enough that per-run timing noise stays in the low percent
    // range on a loaded machine; DR_BENCH_CYCLES scales it. The full
    // system simulates far fewer cycles per second, so the e2e columns
    // run a shorter horizon.
    const Cycle cycles = benchCycles(300000);
    const Cycle e2eCycles = std::max<Cycle>(cycles / 10, 5000);

    const Topology mesh = Topology::makeMesh(meshWidth, meshWidth);
    // 2x2 chiplets of 4x4 routers, the same 64 nodes, with two gateway
    // links per chiplet edge: a fixed share of uniform packets crosses
    // the interposer.
    const Topology chiplet = Topology::makeChipletMesh(2, 2, 4, 4, 2);
    const NetworkParams plain = meshParams(false);
    const NetworkParams vn = meshParams(true);
    const NetworkParams chip = chipletParams();
    constexpr TrafficPattern uniform = TrafficPattern::UniformRandom;
    constexpr TrafficPattern hotspot = TrafficPattern::Hotspot;

    // Every column, in the JSON's row order (a braced list runs its
    // elements in order). The vnet columns mix all four VNs; the
    // threads 2/4 and e2e columns measure parallel-engine scaling.
    const std::vector<WorkloadResult> results = {
        timeNetwork("uniform", mesh, plain, uniform, 0.02, cycles, false, 1),
        timeNetwork("uniform", mesh, plain, uniform, 0.05, cycles, false, 1),
        timeNetwork("uniform", mesh, plain, uniform, 0.10, cycles, false, 1),
        timeNetwork("hotspot", mesh, plain, hotspot, 0.02, cycles, false, 1),
        timeNetwork("hotspot", mesh, plain, hotspot, 0.05, cycles, false, 1),
        timeNetwork("vnet_uniform", mesh, vn, uniform, 0.05, cycles, true, 1),
        timeNetwork("vnet_hotspot", mesh, vn, hotspot, 0.05, cycles, true, 1),
        timeNetwork("chiplet_uniform", chiplet, chip, uniform, 0.02, cycles,
                    false, 1),
        timeNetwork("chiplet_uniform", chiplet, chip, uniform, 0.05, cycles,
                    false, 1),
        timeNetwork("uniform", mesh, plain, uniform, 0.10, cycles, false, 2),
        timeNetwork("uniform", mesh, plain, uniform, 0.10, cycles, false, 4),
        timeE2eHetero(1, e2eCycles),
        timeE2eHetero(4, e2eCycles),
        timeE2eHetero(1, e2eCycles, L1Organization::DcL1),
        timeE2eHetero(4, e2eCycles, L1Organization::DcL1),
    };

    // The throughput summaries: the geomean of a name's threads-1 rows.
    const auto geomeanOf = [&](std::string_view name) {
        std::vector<double> cps;
        for (const WorkloadResult &r : results) {
            if (r.threads == 1 && r.pattern == name)
                cps.push_back(r.cyclesPerSec);
        }
        return geomean(cps);
    };
    // The scaling summaries: one per row of a (name, rate), in row order.
    struct Scaling
    {
        const char *key;
        std::string_view name;
        double rate;
    };
    const Scaling scaling[] = {
        {"uniform_r10", "uniform", 0.10},
        {"e2e_hetero", "e2e_hetero", 0.0},
        {"e2e_hetero_sharedL1", "e2e_hetero_sharedL1", 0.0},
    };

    std::printf("{\n");
    std::printf("  \"bench\": \"noc_kernel\",\n");
    std::printf("  \"config\": {\"topology\": \"mesh8x8\", \"nodes\": 64, "
                "\"packet_flits\": 5, \"cycles\": %llu, "
                "\"host_cores\": %u},\n",
                static_cast<unsigned long long>(cycles),
                std::thread::hardware_concurrency());
    std::printf("  \"workloads\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        std::printf("    {\"pattern\": \"%s\", \"rate\": %.3f, "
                    "\"threads\": %d, "
                    "\"wall_s\": %.3f, \"cycles_per_sec\": %.0f, "
                    "\"flit_hops_per_sec\": %.0f, "
                    "\"packets_delivered\": %llu}%s\n",
                    r.pattern, r.rate, r.threads, r.wallSeconds,
                    r.cyclesPerSec, r.flitHopsPerSec,
                    static_cast<unsigned long long>(r.packetsDelivered),
                    i + 1 < results.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"summary\": {\n");
    for (const char *name : {"uniform", "hotspot", "vnet_uniform",
                             "vnet_hotspot", "chiplet_uniform"})
        std::printf("    \"%s_cycles_per_sec\": %.0f,\n", name,
                    geomeanOf(name));
    for (const Scaling &s : scaling) {
        for (const WorkloadResult &r : results) {
            if (r.pattern == s.name && r.rate == s.rate)
                std::printf("    \"%s_threads%d_cycles_per_sec\": %.0f,\n",
                            s.key, r.threads, r.cyclesPerSec);
        }
    }
    std::printf("    \"peak_rss_kb\": %ld\n", peakRssKb());
    std::printf("  }\n");
    std::printf("}\n");
    return 0;
}

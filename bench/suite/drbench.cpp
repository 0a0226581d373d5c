/**
 * @file
 * drbench: runs one benchmark workload once per process and prints one
 * JSON object as the last line of stdout (see README.md in this
 * directory).
 *
 * Every layer is timed from outside, around calls into public entry
 * points only: Network::{Network, inject, tick, popMessage},
 * HeteroSystem::{HeteroSystem, advance, resetAllStats, collect} and
 * StatsReport::{capture, writeJson}. Work counts come from
 * StatsReport::entries(), HeteroSystem::idleSkippedCycles() and
 * HeteroSystem::mesiStats().
 *
 * Usage:
 *   drbench --workload NAME [--seed N] [--threads N] [--idle-skip 0|1]
 *           [--trace FILE] [--unchunked]
 *
 * advance() (and the noc_uniform cycle loop) is timed in 250-cycle
 * chunks; the runner takes each chunk's minimum over repeats of one
 * seed. --unchunked calls advance() once per phase instead; golden.json
 * is generated that way, so a chunked run matching it shows chunking
 * leaves results unchanged. --threads and --idle-skip override the
 * workload's setting for the traced counterpart runs. --trace records
 * spans around every timed call, times the NoC calls of noc_uniform one
 * by one, and writes the spans to FILE at exit as Chrome trace-event
 * JSON.
 */

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/stats_report.hpp"
#include "noc/network.hpp"
#include "noc/synthetic_traffic.hpp"
#include "workloads/gpu_benchmarks.hpp"
#include "workloads/workload_table.hpp"

using namespace dr;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

constexpr Cycle kChunkCycles = 250;
/** Per-call NoC spans are folded into one span per this many cycles. */
constexpr Cycle kNocWindowCycles = 1000;
/** Timed construction sets behind setup_s (after one untimed set). */
constexpr int kSetupReps = 21;

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    std::optional<int> threads;
    std::optional<bool> idleSkip;
    std::string tracePath;
    bool unchunked = false;
};

// ---------------------------------------------------------------------
// Spans

/**
 * In-memory span recorder. Each span has a name, start, duration and
 * parent span; the spans of one process share a run id. Nothing is
 * recorded when disabled, and nothing is written until the end.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its id. */
    int
    begin(const char *name)
    {
        if (!enabled_)
            return 0;
        spans_.push_back({name, nowUs(), 0.0, parent(), {}});
        const int id = static_cast<int>(spans_.size());
        open_.push_back(id);
        return id;
    }

    void
    end(int id)
    {
        if (!enabled_)
            return;
        Span &s = spans_[id - 1];
        s.durUs = nowUs() - s.startUs;
        open_.pop_back();
    }

    /** A finished span of `count` folded calls, under the open span. */
    void
    addAggregate(const char *name, double startUs, double durUs,
                 std::uint64_t count)
    {
        if (!enabled_)
            return;
        std::ostringstream args;
        args << "\"count\":" << count << ",\"total_ns\":"
             << static_cast<std::uint64_t>(durUs * 1e3);
        spans_.push_back({name, startUs, durUs, parent(), args.str()});
    }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    bool
    write(const std::string &path, const std::string &runId) const
    {
        std::ofstream out(path);
        out.precision(3);
        out << std::fixed << "{\"traceEvents\":[\n";
        const long pid = static_cast<long>(::getpid());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"name\":\"" << s.name
                << "\",\"cat\":\"drbench\",\"ph\":\"X\",\"ts\":" << s.startUs
                << ",\"dur\":" << s.durUs << ",\"pid\":" << pid
                << ",\"tid\":1,\"args\":{\"run_id\":\"" << runId
                << "\",\"span\":" << i + 1 << ",\"parent\":" << s.parent;
            if (!s.args.empty())
                out << "," << s.args;
            out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "],\"displayTimeUnit\":\"ms\"}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        double startUs;
        double durUs;
        int parent;  //!< 0 = root
        std::string args;
    };

    int parent() const { return open_.empty() ? 0 : open_.back(); }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.begin(name))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

// ---------------------------------------------------------------------
// Results

/** FNV-1a, 64 bit. */
std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Every RunResults field at 17 significant digits, '|'-separated. */
std::string
serialize(const RunResults &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.cycles << '|' << r.gpuIpc << '|' << r.cpuIpc << '|'
       << r.cpuLatency << '|' << r.gpuDataRate << '|' << r.memBlockingRate
       << '|' << r.l1Misses << '|' << r.missesWithRemoteCopy << '|'
       << r.delegations << '|' << r.frqRemoteHits << '|'
       << r.frqDelayedHits << '|' << r.frqRemoteMisses << '|'
       << r.probesSent << '|' << r.probeHits << '|' << r.requestsInjected
       << '|' << r.switchTraversals << '|' << r.bufferWrites << '|'
       << r.linkTraversals << '|' << r.gpuL1MissRate << '|'
       << r.llcHitRate;
    return os.str();
}

/** What one process measured, summed over its simulations. */
struct Accum
{
    /** Host ms of each timed advance() step, in simulation order. */
    std::vector<double> advanceMs;
    /** Host ms of every other timed call of one simulation's wall time
     *  (constructor, resetAllStats, collect, capture), in order. */
    std::vector<double> otherMs;
    double measureMs = 0.0;  //!< measured-window share of advanceMs
    double collectMs = 0.0;  //!< collect() + StatsReport::capture
    double writeMs = 0.0;    //!< StatsReport::writeJson
    Cycle cycles = 0;        //!< warmup + measured cycles
    Cycle measured = 0;
    Cycle skipped = 0;       //!< cycles elided by idle skipping
    Cycle measuredSkipped = 0;
    std::string canon;       //!< fingerprint input, one line per run
    std::map<std::string, double> outputs;   //!< checked outputs
    std::map<std::string, double> counts;    //!< simulated, per layer
    std::map<std::string, double> rateSums;  //!< averaged over `runs`
    int runs = 0;
    std::map<std::string, double> host;      //!< per-layer host times
};

/** Sum of `<comp><digits>.<field>` entries, e.g. gpu17.instructions. */
double
sumField(const StatsReport &rep, std::string_view comp,
         std::string_view field)
{
    double total = 0.0;
    for (const StatEntry &e : rep.entries()) {
        const std::string_view p = e.path;
        if (p.substr(0, comp.size()) != comp)
            continue;
        std::size_t i = comp.size();
        while (i < p.size() && p[i] >= '0' && p[i] <= '9')
            ++i;
        if (i > comp.size() && i < p.size() && p[i] == '.' &&
            p.substr(i + 1) == field)
            total += e.value;
    }
    return total;
}

/** Sum of entries with the given prefix and suffix. */
double
sumMatching(const StatsReport &rep, std::string_view prefix,
            std::string_view suffix)
{
    double total = 0.0;
    for (const StatEntry &e : rep.entries()) {
        const std::string_view p = e.path;
        if (p.size() >= prefix.size() + suffix.size() &&
            p.substr(0, prefix.size()) == prefix &&
            p.substr(p.size() - suffix.size()) == suffix)
            total += e.value;
    }
    return total;
}

double
valueOr0(const StatsReport &rep, const std::string &path)
{
    return rep.has(path) ? rep.value(path) : 0.0;
}

/** Fold one whole-chip simulation's counts into the accumulator. */
void
addChipCounts(Accum &acc, const StatsReport &rep, const RunResults &r,
              const MesiStats &mesi)
{
    auto &C = acc.counts;
    C["noc.flit_hops"] += static_cast<double>(r.linkTraversals);
    C["noc.request.flits_delivered"] +=
        valueOr0(rep, "net.request.flitsDelivered");
    C["noc.reply.flits_delivered"] +=
        valueOr0(rep, "net.reply.flitsDelivered");
    C["noc.injection_stalls"] +=
        sumMatching(rep, "net.", ".injectionStalls");
    C["gpu.instructions"] += sumField(rep, "gpu", "instructions");
    C["gpu.stall_inject_cycles"] += sumField(rep, "gpu", "stallInject");
    C["gpu.frq_remote_hits"] += sumField(rep, "gpu", "frqRemoteHits");
    C["gpu.frq_delayed_hits"] += sumField(rep, "gpu", "frqDelayedHits");
    C["gpu.frq_remote_misses"] += sumField(rep, "gpu", "frqRemoteMisses");
    C["gpu.probes_sent"] += sumField(rep, "gpu", "probesSent");
    C["cpu.retired"] += sumField(rep, "cpu", "retired");
    C["cpu.blocked_cycles"] += sumField(rep, "cpu", "blockedCycles");
    C["mem.delegations"] += sumField(rep, "mem", "delegations");
    C["mem.llc_stall_cycles"] += sumField(rep, "mem", "llcStallCycles");
    C["mem.dram_reads"] += sumField(rep, "mem", "dramReads");
    C["mem.dram_row_hits"] += sumField(rep, "mem", "dramRowHits");
    C["mem.dram_accesses"] += sumField(rep, "mem", "dramReads") +
                              sumField(rep, "mem", "dramWrites");
    C["coherence.mesi_reads"] += static_cast<double>(mesi.reads.value());
    C["coherence.invalidations"] +=
        static_cast<double>(mesi.invalidations.value());

    auto &R = acc.rateSums;
    R["noc.reply.packet_latency"] +=
        valueOr0(rep, "net.reply.packetLatency");
    R["gpu.l1_miss_rate"] += rep.value("sim.gpuL1MissRate");
    R["cpu.request_latency"] += rep.value("sim.cpuLatency");
    R["mem.blocking_rate"] += rep.value("sim.memBlockingRate");
    R["mem.llc_hit_rate"] += rep.value("sim.llcHitRate");
    ++acc.runs;
}

/**
 * Time `call` as one span and, unless `into` is null, one step of the
 * simulation's wall time; returns its ms.
 */
template <typename Call>
double
timed(Tracer &tr, const char *name, std::vector<double> *into, Call &&call)
{
    ScopedSpan span(tr, name);
    const auto t0 = Clock::now();
    call();
    const double ms = msSince(t0);
    if (into)
        into->push_back(ms);
    return ms;
}

/**
 * Minimum host seconds, per construction, over kSetupReps sets of
 * `construct(i)` for i < slots (after one untimed set), summed.
 */
template <typename Construct>
double
setupSeconds(int slots, Construct construct)
{
    std::vector<double> best(slots,
                             std::numeric_limits<double>::infinity());
    for (int rep = 0; rep <= kSetupReps; ++rep) {
        for (int i = 0; i < slots; ++i) {
            const auto t0 = Clock::now();
            construct(i);
            if (rep > 0)
                best[i] = std::min(best[i], msSince(t0));
        }
    }
    double total = 0.0;
    for (const double ms : best)
        total += ms;
    return total / 1e3;
}

// ---------------------------------------------------------------------
// Whole-chip workloads

/** One whole-chip simulation: configuration plus co-runners. */
struct ChipRun
{
    SystemConfig cfg;
    std::string gpu;
    std::string cpu;
};

/** advance() over `cycles` in timed steps; returns host ms. */
double
timedAdvance(HeteroSystem &sys, Cycle cycles, const Options &opt,
             Tracer &tr, Accum &acc)
{
    const Cycle step = opt.unchunked ? cycles : kChunkCycles;
    double total = 0.0;
    for (Cycle done = 0; done < cycles; done += step) {
        total += timed(tr, "advance", &acc.advanceMs, [&] {
            sys.advance(std::min(step, cycles - done));
        });
    }
    return total;
}

/** Construct, warm up, measure, collect and capture one simulation. */
RunResults
runChip(const ChipRun &run, const Options &opt, Tracer &tr, Accum &acc)
{
    ScopedSpan runSpan(tr, "run");
    const SystemConfig &cfg = run.cfg;
    std::unique_ptr<HeteroSystem> sys;
    timed(tr, "HeteroSystem", &acc.otherMs, [&] {
        sys = std::make_unique<HeteroSystem>(cfg, run.gpu, run.cpu);
    });
    {
        ScopedSpan span(tr, "warmup");
        timedAdvance(*sys, cfg.warmupCycles, opt, tr, acc);
    }
    timed(tr, "resetAllStats", &acc.otherMs, [&] { sys->resetAllStats(); });
    const Cycle skippedBefore = sys->idleSkippedCycles();
    {
        ScopedSpan span(tr, "measure");
        acc.measureMs += timedAdvance(*sys, cfg.simCycles, opt, tr, acc);
    }
    RunResults r;
    acc.collectMs += timed(tr, "collect", &acc.otherMs,
                           [&] { r = sys->collect(cfg.simCycles); });
    StatsReport rep;
    acc.collectMs += timed(tr, "capture", &acc.otherMs, [&] {
        rep = StatsReport::capture(*sys, cfg.simCycles);
    });
    acc.writeMs += timed(tr, "writeJson", nullptr, [&] {
        std::ostringstream sink;
        rep.writeJson(sink);
    });

    acc.cycles += cfg.warmupCycles + cfg.simCycles;
    acc.measured += cfg.simCycles;
    acc.skipped += sys->idleSkippedCycles();
    acc.measuredSkipped += sys->idleSkippedCycles() - skippedBefore;
    acc.canon += serialize(r) + "\n";
    addChipCounts(acc, rep, r, sys->mesiStats());
    return r;
}

/** The paper chip with the bench's DR fabric (benchConfig). */
SystemConfig
paperConfig(Mechanism mech, std::uint64_t seed, Cycle warmup, Cycle sim)
{
    SystemConfig cfg = benchConfig(mech);
    cfg.seed = seed;
    cfg.noc.threads = 1;  // never the DR_NOC_THREADS/DR_BENCH_* defaults
    cfg.warmupCycles = warmup;
    cfg.simCycles = sim;
    return cfg;
}

/** fig_chiplet_scale's 256-node chip: 4x4 chiplets of 4x4 routers. */
SystemConfig
chiplet256Config(std::uint64_t seed, Cycle warmup, Cycle sim)
{
    SystemConfig cfg =
        paperConfig(Mechanism::DelegatedReplies, seed, warmup, sim);
    cfg.noc.topology = TopologyKind::ChipletMesh;
    cfg.noc.chipletsX = 4;
    cfg.noc.chipletsY = 4;
    cfg.noc.chipletSubW = 4;
    cfg.noc.chipletSubH = 4;
    cfg.noc.chipletLinksPerEdge = 2;
    cfg.noc.interposerChannelBytes = 16;
    cfg.noc.meshWidth = 16;
    cfg.noc.meshHeight = 16;
    cfg.gpu.numCores = 192;
    cfg.cpu.numCores = 48;
    cfg.mem.numNodes = 16;
    cfg.noc.vcsPerNet = 6;
    cfg.noc.vnetRequestVcs = 3;
    cfg.noc.vnetForwardVcs = 3;
    cfg.noc.vnetReplyVcs = 3;
    cfg.noc.vnetDelegatedVcs = 3;
    cfg.noc.threads = 4;
    return cfg;
}

/** The simulations a whole-chip workload runs, in order. */
std::vector<ChipRun>
chipRuns(const Options &opt)
{
    const std::uint64_t seed = opt.seed;
    std::vector<ChipRun> runs;
    if (opt.workload == "paper_dr") {
        runs.push_back({paperConfig(Mechanism::DelegatedReplies, seed,
                                    11000, 110000),
                        "HS", "bodytrack"});
    } else if (opt.workload == "paper_lowload") {
        SystemConfig cfg = paperConfig(Mechanism::DelegatedReplies, seed,
                                       30000, 300000);
        cfg.gpu.warpsPerCore = 1;
        runs.push_back({cfg, "HS", "vips"});
    } else if (opt.workload == "chiplet256_dr_t4") {
        runs.push_back({chiplet256Config(seed, 3000, 30000), "HS",
                        "bodytrack"});
    } else if (opt.workload == "figure_sweep") {
        for (const std::string &gpu : gpuBenchmarkNames()) {
            for (const Mechanism mech :
                 {Mechanism::Baseline, Mechanism::RealisticProbing,
                  Mechanism::DelegatedReplies}) {
                runs.push_back({paperConfig(mech, seed, 1000, 2000), gpu,
                                cpuCoRunnersFor(gpu)[0]});
            }
        }
    }
    for (ChipRun &run : runs) {
        if (opt.threads)
            run.cfg.noc.threads = *opt.threads;
        if (opt.idleSkip)
            run.cfg.idleSkip = *opt.idleSkip;
    }
    return runs;
}

/** Runs a whole-chip workload; returns setup_s. */
double
runChipWorkload(const Options &opt, Tracer &tr, Accum &acc)
{
    const std::vector<ChipRun> runs = chipRuns(opt);
    const double setupS =
        setupSeconds(static_cast<int>(runs.size()), [&](int i) {
            const HeteroSystem sys(runs[i].cfg, runs[i].gpu, runs[i].cpu);
        });

    // figure_sweep: 11 kernels x {baseline, RP, DR}; its DR speed-up is
    // the geometric mean over the kernels of DR / baseline GPU IPC.
    std::vector<double> speedups;
    double baselineIpc = 0.0;
    for (const ChipRun &run : runs) {
        const RunResults r = runChip(run, opt, tr, acc);
        if (runs.size() == 1) {
            acc.outputs["sim.gpu_ipc"] = r.gpuIpc;
            acc.outputs["sim.cpu_ipc"] = r.cpuIpc;
            acc.outputs["sim.mem_blocking_rate"] = r.memBlockingRate;
        } else if (run.cfg.mechanism == Mechanism::Baseline) {
            baselineIpc = r.gpuIpc;
        } else if (run.cfg.mechanism == Mechanism::DelegatedReplies) {
            speedups.push_back(baselineIpc > 0.0 ? r.gpuIpc / baselineIpc
                                                 : 0.0);
        }
    }
    if (runs.size() > 1)
        acc.outputs["sim.dr_speedup"] = geomean(speedups);
    return setupS;
}

// ---------------------------------------------------------------------
// noc_uniform

/**
 * The raw Network on an 8x8 mesh, XY routing, 5-flit packets injected
 * uniformly at random at 0.10 packets/node/cycle, every delivered
 * message popped each cycle. Returns setup_s.
 */
double
runNocWorkload(const Options &opt, Tracer &tr, Accum &acc)
{
    const int width = 8;
    const int nodes = width * width;
    const int packetFlits = 5;
    const double rate = 0.10;
    const Cycle cycles = 130000;

    const Topology topo = Topology::makeMesh(width, width);
    NetworkParams params;
    params.routing = RoutingKind::DimOrderXY;
    params.injBufferFlits.assign(nodes, 36);
    params.seed = opt.seed;
    params.threads = opt.threads.value_or(1);

    const double setupS =
        setupSeconds(1, [&](int) { const Network net(params, topo); });

    ScopedSpan runSpan(tr, "run");
    std::unique_ptr<Network> net;
    timed(tr, "Network", &acc.otherMs,
          [&] { net = std::make_unique<Network>(params, topo); });
    const SyntheticTraffic traffic(TrafficPattern::UniformRandom, nodes,
                                   width);
    Rng rng(opt.seed * 31 + 7);
    std::uint64_t id = 1;

    // Per-call timing (traced only): totals per call kind, folded into
    // one span per kind per window.
    struct CallTotals
    {
        double ns = 0.0;
        std::uint64_t count = 0;
    };
    CallTotals tick, inject, pop;
    CallTotals winTick, winInject, winPop;
    const bool traced = tr.enabled();
    auto perCall = [traced](CallTotals &tot, auto &&call) {
        if (!traced) {
            call();
            return;
        }
        const auto t0 = Clock::now();
        call();
        tot.ns += std::chrono::duration<double, std::nano>(Clock::now() -
                                                           t0)
                      .count();
        ++tot.count;
    };

    const Cycle step = opt.unchunked ? cycles : kChunkCycles;
    auto stepStart = Clock::now();
    std::optional<ScopedSpan> window;
    double windowStartUs = 0.0;
    for (Cycle now = 0; now < cycles; ++now) {
        if (traced && now % kNocWindowCycles == 0) {
            window.emplace(tr, "cycles");
            windowStartUs = tr.nowUs();
        }
        for (NodeId src = 0; src < nodes; ++src) {
            if (!rng.chance(rate) || !net->canInject(src, packetFlits))
                continue;
            Message m;
            m.type = MsgType::ReadReply;
            m.cls = TrafficClass::Gpu;
            m.src = src;
            m.dst = traffic.dest(src, rng);
            m.id = id++;
            perCall(winInject, [&] { net->inject(m, packetFlits, now); });
        }
        perCall(winTick, [&] { net->tick(now); });
        for (NodeId n = 0; n < nodes; ++n) {
            for (const NetKind kind : {NetKind::Reply, NetKind::Request}) {
                while (net->hasMessage(n, kind))
                    perCall(winPop, [&] { net->popMessage(n, kind); });
            }
        }
        if ((now + 1) % step == 0 || now + 1 == cycles) {
            acc.advanceMs.push_back(msSince(stepStart));
            stepStart = Clock::now();
        }
        if (traced && ((now + 1) % kNocWindowCycles == 0 ||
                       now + 1 == cycles)) {
            // Lay the three aggregates end to end from the window start
            // so they nest inside it without overlapping.
            double at = windowStartUs;
            for (auto [name, win, total] :
                 {std::tuple{"tick", &winTick, &tick},
                  std::tuple{"inject", &winInject, &inject},
                  std::tuple{"popMessage", &winPop, &pop}}) {
                tr.addAggregate(name, at, win->ns / 1e3, win->count);
                at += win->ns / 1e3;
                total->ns += win->ns;
                total->count += win->count;
                *win = {};
            }
            window.reset();
        }
    }

    const NetworkStats &st = net->stats();
    const std::uint64_t hops = net->totalLinkTraversals();
    for (const double ms : acc.advanceMs)
        acc.measureMs += ms;
    acc.cycles += cycles;
    acc.measured += cycles;

    std::ostringstream canon;
    canon.precision(17);
    canon << st.packetsDelivered.value() << '|' << hops << '|'
          << st.packetLatency.sum() << "\n";
    acc.canon += canon.str();
    acc.outputs["sim.packets_delivered"] =
        static_cast<double>(st.packetsDelivered.value());
    acc.outputs["sim.link_traversals"] = static_cast<double>(hops);
    acc.outputs["sim.latency_sum"] = st.packetLatency.sum();

    auto &C = acc.counts;
    C["noc.flit_hops"] = static_cast<double>(hops);
    // Every packet is a ReadReply, so all traffic is reply traffic.
    C["noc.reply.flits_delivered"] =
        static_cast<double>(st.flitsDelivered.value());
    std::uint64_t stalls = 0;
    for (const Counter &c : st.vnInjectionStalls)
        stalls += c.value();
    C["noc.injection_stalls"] = static_cast<double>(stalls);
    acc.rateSums["noc.reply.packet_latency"] = st.packetLatency.mean();
    acc.runs = 1;
    if (traced) {
        auto &H = acc.host;
        H["noc.tick_ns"] = tick.count ? tick.ns / tick.count : 0.0;
        H["noc.tick_share"] = tick.ns / (acc.measureMs * 1e6);
        H["noc.inject_ns"] = inject.count ? inject.ns / inject.count : 0.0;
        H["noc.eject_ns"] = pop.count ? pop.ns / pop.count : 0.0;
    }
    return setupS;
}

// ---------------------------------------------------------------------
// Command line and output

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "noc_uniform", "paper_dr", "paper_lowload", "chiplet256_dr_t4",
        "figure_sweep"};
    return names;
}

[[noreturn]] void
usage(const std::string &problem)
{
    std::string names;
    for (const std::string &n : workloadNames())
        names += (names.empty() ? "" : ", ") + n;
    std::fprintf(stderr,
                 "drbench: %s\n"
                 "usage: drbench --workload NAME [--seed N] [--threads N] "
                 "[--idle-skip 0|1] [--trace FILE] [--unchunked]\n"
                 "  NAME: one of %s\n"
                 "  --seed: a whole number in [0, 2^64) (default 42)\n"
                 "  --threads: a whole number in [1, 64]\n",
                 problem.c_str(), names.c_str());
    std::exit(2);
}

/** Whole-string unsigned parse: digits only, nothing trailing. */
template <typename T>
std::optional<T>
parseWhole(std::string_view text)
{
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || text[0] == '-' || ec != std::errc() ||
        end != text.data() + text.size())
        return std::nullopt;
    return value;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--unchunked") {
            opt.unchunked = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for '" + std::string(arg) + "'");
        const std::string_view value = argv[++i];
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            const auto seed = parseWhole<std::uint64_t>(value);
            if (!seed)
                usage("--seed '" + std::string(value) +
                      "' is not a whole number");
            opt.seed = *seed;
        } else if (arg == "--threads") {
            const auto threads = parseWhole<int>(value);
            if (!threads || *threads < 1 || *threads > 64)
                usage("--threads '" + std::string(value) +
                      "' is not a whole number in [1, 64]");
            opt.threads = *threads;
        } else if (arg == "--idle-skip") {
            if (value != "0" && value != "1")
                usage("--idle-skip '" + std::string(value) +
                      "' is not 0 or 1");
            opt.idleSkip = value == "1";
        } else if (arg == "--trace") {
            opt.tracePath = value;
        } else {
            usage("unknown argument '" + std::string(arg) + "'");
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        usage(opt.workload.empty()
                  ? std::string("--workload is required")
                  : "unknown workload '" + opt.workload + "'");
    if (opt.workload == "noc_uniform" && opt.idleSkip)
        usage("--idle-skip does not apply to noc_uniform");
    return opt;
}

/**
 * Peak resident set of this process image in MB. VmHWM, not getrusage:
 * ru_maxrss survives execve, so it would report the launching runner's
 * own peak whenever that is larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    std::fprintf(stderr, "drbench: no VmHWM in /proc/self/status\n");
    std::exit(1);
}

/** A JSON number at full precision; a non-finite value is fatal. */
std::string
number(const std::string &what, double value)
{
    if (!std::isfinite(value)) {
        std::fprintf(stderr, "drbench: non-finite value for %s\n",
                     what.c_str());
        std::exit(1);
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
jsonObject(const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[key, value] : values) {
        if (out.size() > 1)
            out += ',';
        out.append("\"").append(key).append("\":");
        out += number(key, value);
    }
    return out + "}";
}

std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (const double v : values) {
        if (out.size() > 1)
            out += ',';
        out += number("a timed step", v);
    }
    return out + "]";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Tracer tr(!opt.tracePath.empty());
    Accum acc;
    const double setupS = opt.workload == "noc_uniform"
                              ? runNocWorkload(opt, tr, acc)
                              : runChipWorkload(opt, tr, acc);

    auto &C = acc.counts;
    for (const auto &[key, sum] : acc.rateSums)
        C[key] = sum / acc.runs;
    C["core.idle_skip_frac"] =
        static_cast<double>(acc.skipped) / static_cast<double>(acc.cycles);
    const double rowHits = C["mem.dram_row_hits"];
    const double accesses = C["mem.dram_accesses"];
    C["mem.dram_row_hit_rate"] = accesses > 0 ? rowHits / accesses : 0.0;
    C.erase("mem.dram_row_hits");
    C.erase("mem.dram_accesses");

    // Host time per unit of simulated work, over the measured window.
    auto &H = acc.host;
    const double measureNs = acc.measureMs * 1e6;
    const double hops = C["noc.flit_hops"];
    const double instructions = C["gpu.instructions"] + C["cpu.retired"];
    double advanceMs = 0.0;
    for (const double ms : acc.advanceMs)
        advanceMs += ms;
    H["noc.host_ns_per_flit_hop"] = hops > 0 ? measureNs / hops : 0.0;
    H["core.advance_s"] = advanceMs / 1e3;
    H["core.host_ns_per_cycle"] =
        measureNs / static_cast<double>(acc.measured - acc.measuredSkipped);
    H["core.host_ns_per_instr"] =
        instructions > 0 ? measureNs / instructions : 0.0;
    H["core.collect_ms"] = acc.collectMs;
    H["core.stats_write_ms"] = acc.writeMs;

    if (tr.enabled()) {
        const std::string runId =
            opt.workload + "-" + std::to_string(opt.seed) + "-" +
            std::to_string(static_cast<long>(::getpid()));
        if (!tr.write(opt.tracePath, runId)) {
            std::fprintf(stderr, "drbench: cannot write trace %s\n",
                         opt.tracePath.c_str());
            return 1;
        }
    }

    char fp[17];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(acc.canon)));
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,"
                "\"fingerprint\":\"%s\",\"outputs\":%s,\"cycles\":%llu,"
                "\"setup_s\":%s,\"peak_rss_mb\":%s,\"advance_ms\":%s,"
                "\"other_ms\":%s,\"counts\":%s,\"host\":%s}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                tr.enabled() ? "true" : "false", fp,
                jsonObject(acc.outputs).c_str(),
                static_cast<unsigned long long>(acc.cycles),
                number("setup_s", setupS).c_str(),
                number("peak_rss_mb", peakRssMb()).c_str(),
                jsonArray(acc.advanceMs).c_str(),
                jsonArray(acc.otherMs).c_str(), jsonObject(C).c_str(),
                jsonObject(H).c_str());
    return 0;
}

/**
 * @file
 * drsim — the command-line simulator front-end.
 *
 * Usage:
 *   drsim [options]
 *     --config FILE       load a key=value configuration file
 *     --set KEY=VALUE     override one option (repeatable)
 *     --gpu NAME          GPU benchmark (default HS; see --list)
 *     --cpu NAME          CPU benchmark (default bodytrack)
 *     --stats FORMAT      text | csv | json (default text summary only)
 *     --watchdog N        abort with a router-state dump if the system
 *                         makes no forward progress for N cycles
 *     --check             run the invariant sweep (flit/credit
 *                         conservation, MSHR leaks) after the run
 *     --dump-config       validate, print the effective configuration
 *                         and exit
 *     --list              list benchmarks and exit
 *     --help
 *
 * Examples:
 *   drsim --gpu 2DCON --cpu canneal --set mechanism=delegated-replies
 *   drsim --config experiments/dr_dragonfly.cfg --stats json > out.json
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/log.hpp"
#include "core/config_io.hpp"
#include "core/hetero_system.hpp"
#include "core/layout.hpp"
#include "core/stats_report.hpp"
#include "cpu/cpu_profile.hpp"
#include "workloads/gpu_benchmarks.hpp"

using namespace dr;

namespace
{

void
usage()
{
    std::printf(
        "drsim - Delegated Replies heterogeneous-chip simulator\n"
        "  --config FILE     load a key=value configuration file\n"
        "  --set KEY=VALUE   override one option (repeatable)\n"
        "  --gpu NAME        GPU benchmark (default HS)\n"
        "  --cpu NAME        CPU benchmark (default bodytrack)\n"
        "  --stats FORMAT    text | csv | json full stats dump\n"
        "  --watchdog N      abort with a state dump after N cycles of\n"
        "                    no forward progress\n"
        "  --check           run the invariant sweep after the run\n"
        "  --dump-config     validate, print the effective configuration\n"
        "                    and exit\n"
        "  --list            list benchmarks and exit\n");
}

void
listBenchmarks()
{
    std::printf("GPU benchmarks:");
    for (const auto &name : gpuBenchmarkNames())
        std::printf(" %s", name.c_str());
    std::printf("\nCPU benchmarks:");
    for (const auto &name : cpuBenchmarkNames())
        std::printf(" %s", name.c_str());
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg = SystemConfig::makePaper();
    std::string gpu = "HS";
    std::string cpu = "bodytrack";
    std::string statsFormat;
    bool dumpConfig = false;
    bool checkAfterRun = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("drsim: '", arg, "' needs an argument");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            flushStdout("drsim", "usage");
            return 0;
        } else if (arg == "--list") {
            listBenchmarks();
            flushStdout("drsim", "benchmark list");
            return 0;
        } else if (arg == "--config") {
            parseConfigFile(cfg, next());
        } else if (arg == "--set") {
            const std::string kv = next();
            const auto eq = kv.find('=');
            if (eq == std::string::npos)
                fatal("drsim: --set expects KEY=VALUE, got '", kv, "'");
            applyConfigOption(cfg, kv.substr(0, eq), kv.substr(eq + 1));
        } else if (arg == "--gpu") {
            gpu = next();
        } else if (arg == "--cpu") {
            cpu = next();
        } else if (arg == "--stats") {
            statsFormat = next();
            if (statsFormat != "text" && statsFormat != "csv" &&
                statsFormat != "json")
                fatal("drsim: unknown stats format '", statsFormat,
                      "' (text, csv or json)");
        } else if (arg == "--watchdog") {
            applyConfigOption(cfg, "debug.watchdogCycles", next());
        } else if (arg == "--check") {
            checkAfterRun = true;
        } else if (arg == "--dump-config") {
            dumpConfig = true;
        } else {
            fatal("drsim: unknown argument '", arg, "'");
        }
    }

    cfg.validate();
    if (dumpConfig) {
        writeConfig(cfg, std::cout);
        flushStdout("drsim", "configuration");
        return 0;
    }

    HeteroSystem system(cfg, gpu, cpu);
    const RunResults r = system.run();
    if (checkAfterRun)
        system.checkInvariants();

    if (statsFormat.empty()) {
        std::printf("workload           %s + %s\n", gpu.c_str(),
                    cpu.c_str());
        std::printf("mechanism          %s\n",
                    mechanismName(cfg.mechanism));
        std::printf("layout/topology    %s / %s\n",
                    layoutName(cfg.layout),
                    topologyName(cfg.noc.topology));
        std::printf("cycles measured    %llu\n",
                    static_cast<unsigned long long>(r.cycles));
        std::printf("GPU IPC            %.3f\n", r.gpuIpc);
        std::printf("CPU IPC/core       %.3f\n", r.cpuIpc);
        std::printf("CPU latency        %.1f cycles\n", r.cpuLatency);
        std::printf("GPU data rate      %.3f flits/cycle/core\n",
                    r.gpuDataRate);
        std::printf("mem blocking       %.1f %%\n",
                    100.0 * r.memBlockingRate);
        std::printf("L1 miss rate       %.1f %%\n",
                    100.0 * r.gpuL1MissRate);
        std::printf("misses forwarded   %.1f %%\n",
                    100.0 * r.forwardedFraction());
        std::printf("remote hit rate    %.1f %%\n",
                    100.0 * r.remoteHitRate());
        flushStdout("drsim", "summary");
        return 0;
    }

    const StatsReport report =
        StatsReport::capture(system, cfg.simCycles);
    if (statsFormat == "text")
        report.writeText(std::cout);
    else if (statsFormat == "csv")
        report.writeCsv(std::cout);
    else
        report.writeJson(std::cout);
    flushStdout("drsim", statsFormat + " report");
    return 0;
}

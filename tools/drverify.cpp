/**
 * @file
 * drverify — exhaustive explicit-state checker for the Delegated
 * Replies protocol (see src/verify/ and DESIGN.md §10).
 *
 * Usage:
 *   drverify [options]
 *     --config NAME     run one named configuration (default: standard)
 *     --all             run every named configuration and check that
 *                       each mutant reports its expected violation
 *     --list            list named configurations and exit
 *     --cores N         custom cold-start config: SM cores (2..6)
 *     --lines N         custom: distinct cache lines (1..8)
 *     --reads N         custom: reads per core (1..4)
 *     --max-states N    abort bound on visited states (default 1e6)
 *     --no-livelock     skip the cycle-detection pass
 *     --verbose         print every state along a counterexample
 *     --help
 *
 * Exit status: 0 = every run matched expectations, 1 = a malformed
 * value or a failed write to stdout, 2 = a property failed
 * unexpectedly (or a mutant was not detected), 3 = state limit
 * reached.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/config.hpp"
#include "common/log.hpp"
#include "verify/checker.hpp"
#include "verify/configs.hpp"

using namespace dr;

namespace
{

void
usage()
{
    std::printf(
        "drverify - exhaustive DR-protocol model checker\n"
        "  --config NAME   run one named configuration (see --list)\n"
        "  --all           run every configuration; mutants must fail\n"
        "                  with their expected property\n"
        "  --list          list named configurations and exit\n"
        "  --cores N       custom cold config: SM cores (2..6)\n"
        "  --lines N       custom cold config: lines (1..8)\n"
        "  --reads N       custom cold config: reads per core (1..4)\n"
        "  --max-states N  visited-state bound (default 1000000)\n"
        "  --no-livelock   skip the cycle-detection pass\n"
        "  --verbose       print every state along a counterexample\n");
}

void
listConfigs()
{
    std::printf("named configurations:\n");
    for (const auto &c : verify::allConfigs()) {
        std::printf("  %-16s %s%s\n", c.name.c_str(), c.summary.c_str(),
                    c.expectation.empty()
                        ? ""
                        : ("  [expects " + c.expectation + "]").c_str());
    }
}

/** Returns the process exit code for one checked configuration. */
int
runOne(const verify::NamedConfig &named, const verify::CheckOptions &opts,
       bool verbose)
{
    std::printf("== %s: %s\n", named.name.c_str(), named.summary.c_str());
    verify::Model model(named.config);
    const verify::CheckResult result = verify::check(model, opts);
    std::fputs(verify::formatResult(model, result, verbose).c_str(),
               stdout);
    if (result.hitStateLimit)
        return 3;
    if (named.expectation.empty())
        return result.passed ? 0 : 2;
    if (result.passed) {
        std::printf("FAIL: mutant was expected to violate %s but "
                    "passed\n",
                    named.expectation.c_str());
        return 2;
    }
    if (result.violatedProperty != named.expectation) {
        std::printf("FAIL: mutant was expected to violate %s but the "
                    "checker reported %s\n",
                    named.expectation.c_str(),
                    result.violatedProperty.c_str());
        return 2;
    }
    std::printf("OK: mutant detected as expected (%s)\n",
                named.expectation.c_str());
    return 0;
}

/** The whole command line; returns the exit status. */
int
run(int argc, char **argv)
{
    std::string configName;
    bool runAll = false;
    bool verbose = false;
    int cores = 0;
    int lines = 2;
    int reads = 1;
    verify::CheckOptions opts;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "drverify: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            listConfigs();
            return 0;
        } else if (arg == "--all") {
            runAll = true;
        } else if (arg == "--config") {
            configName = value();
        } else if (arg == "--cores") {
            cores = static_cast<int>(
                parseWhole("--cores", value(), 2, verify::maxCores));
        } else if (arg == "--lines") {
            lines = static_cast<int>(
                parseWhole("--lines", value(), 1, verify::maxLines));
        } else if (arg == "--reads") {
            reads = static_cast<int>(
                parseWhole("--reads", value(), 1, verify::maxReads));
        } else if (arg == "--max-states") {
            opts.maxStates = static_cast<std::uint64_t>(parseWhole(
                "--max-states", value(), 1,
                std::numeric_limits<long long>::max()));
        } else if (arg == "--no-livelock") {
            opts.checkLivelock = false;
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            std::fprintf(stderr, "drverify: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }

    if (runAll) {
        int worst = 0;
        for (const auto &named : verify::allConfigs()) {
            const int rc = runOne(named, opts, verbose);
            if (rc > worst)
                worst = rc;
            std::printf("\n");
        }
        std::printf(worst == 0 ? "all configurations behaved as "
                                 "expected\n"
                               : "some configurations FAILED\n");
        return worst;
    }

    if (cores > 0) {
        // Cold-start custom configuration: no warm pointer or L1
        // contents, so delegation arises organically from repeated
        // reads of the same line.
        verify::NamedConfig named;
        named.name = "custom";
        named.summary = std::to_string(cores) + " cores / " +
                        std::to_string(lines) + " lines / " +
                        std::to_string(reads) + " reads, cold start";
        verify::ModelConfig cfg;
        cfg.numCores = cores;
        cfg.numLines = lines;
        cfg.maxReadsPerCore = reads;
        cfg.llcPresent = 0;
        named.config = cfg;
        return runOne(named, opts, verbose);
    }

    const verify::NamedConfig *named =
        verify::findConfig(configName.empty() ? "standard" : configName);
    if (named == nullptr) {
        std::fprintf(stderr, "drverify: unknown configuration '%s'\n",
                     configName.c_str());
        listConfigs();
        return 2;
    }
    return runOne(*named, opts, verbose);
}

} // namespace

int
main(int argc, char **argv)
{
    const int status = run(argc, argv);
    // Every exit that printed flushes here: a lost verdict is fatal.
    flushStdout("drverify", "output");
    return status;
}

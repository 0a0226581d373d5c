#ifndef DR_CORE_EXPERIMENT_HPP
#define DR_CORE_EXPERIMENT_HPP

/**
 * @file
 * Experiment-harness helpers shared by the bench binaries: configured
 * runs, mechanism sweeps, and the small statistics (geometric/harmonic
 * means) the paper reports.
 */

#include <string>
#include <vector>

#include "core/hetero_system.hpp"

namespace dr
{

/** Run one CPU-GPU workload under the given configuration. */
RunResults runWorkload(const SystemConfig &cfg, const std::string &gpu,
                       const std::string &cpu);

/** Geometric mean (ignores non-positive values). */
double geomean(const std::vector<double> &values);

/** Harmonic mean (ignores non-positive values). */
double harmonicMean(const std::vector<double> &values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

/**
 * Bench-wide scale factor from the DR_BENCH_CYCLES environment variable
 * (measured cycles per run; default `fallback`). Lets users trade
 * precision for runtime without recompiling.
 */
Cycle benchCycles(Cycle fallback);

/**
 * CPU co-runners per GPU benchmark in the headline sweep, from the
 * DR_BENCH_CPUS environment variable: 1 to 3, default 3 (all of Table
 * II's co-runners).
 */
int benchCpus();

/** A paper-default config scaled to the bench cycle budget. */
SystemConfig benchConfig(Mechanism mechanism);

} // namespace dr

#endif // DR_CORE_EXPERIMENT_HPP

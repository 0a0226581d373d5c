#ifndef DR_BENCH_FIGURES_HPP
#define DR_BENCH_FIGURES_HPP

/**
 * @file
 * The paper-figure driver. A figure is a function over a Sweep that
 * asks s.run() for its simulations and prints its table with s.print().
 * The driver calls each selected figure twice. The first pass records
 * the points (run() returns zeroed results, the text is dropped); a
 * pool of threads then runs every distinct point once, in first-request
 * order; the second pass renders the tables from the results. So a
 * body's requests must not depend on results: a second-pass request the
 * first pass did not make panics. A point is the whole SystemConfig
 * plus the workload names, so figures that ask for one simulation
 * share it.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "core/experiment.hpp"
#include "noc/synthetic_traffic.hpp"
#include "workloads/gpu_benchmarks.hpp"
#include "workloads/workload_table.hpp"

namespace dr
{

/** One chip simulation: runWorkload()'s arguments. */
struct ChipPoint
{
    SystemConfig cfg;
    std::string gpu, cpu;
    bool operator==(const ChipPoint &) const = default;
};

/** One raw-network load point: runSyntheticLoad()'s arguments. */
struct SyntheticPoint
{
    TopologyKind topo;
    int nodes, meshWidth, meshHeight;
    TrafficPattern pattern;
    double injectionRate;
    int packetFlits;
    Cycle cycles;
    bool operator==(const SyntheticPoint &) const = default;
};

using SweepPoint = std::variant<ChipPoint, SyntheticPoint>;
using SweepResult = std::variant<RunResults, SyntheticResult>;
/** What a distinct point becomes: a simulation, or a test's stand-in. */
using PointRunner = std::function<SweepResult(const SweepPoint &)>;

/** Simulate one point. */
SweepResult simulatePoint(const SweepPoint &point);

class Sweep;

struct Figure
{
    std::string name;  //!< `figures NAME` selects it
    void (*body)(Sweep &);
};

/**
 * `figures [-j N] [-o DIR] [name ...]` over `figures`, with jobs x
 * DR_NOC_THREADS threads fitting `cpus`. The tables go to stdout in name
 * order, or to DIR/<name>.txt and DIR/bench_output.txt, their
 * concatenation. Returns the exit status.
 */
int figuresMain(int argc, char **argv, std::vector<Figure> figures,
                const PointRunner &runner, int cpus);

/** One figures run's point table, as a figure body sees it. */
class Sweep
{
  public:
    RunResults run(const SystemConfig &cfg, const std::string &gpu,
                   const std::string &cpu);
    SyntheticResult run(const SyntheticPoint &point);
    /** printf() into the figure's table. */
    [[gnu::format(printf, 2, 3)]] void print(const char *fmt, ...);

  private:
    friend int figuresMain(int, char **, std::vector<Figure>,
                           const PointRunner &, int);
    template <class R> R request(SweepPoint point);

    std::vector<SweepPoint> points_;  //!< distinct, in first-request order
    std::vector<SweepResult> results_;
    int requested_[2] = {};   //!< first-pass requests, per SweepPoint kind
    int distinct_[2] = {};    //!< points_, per SweepPoint kind
    std::string figure_;      //!< the body being called
    bool rendering_ = false;  //!< second pass
    std::string text_;        //!< the body's table, in the second pass
};

} // namespace dr

#endif // DR_BENCH_FIGURES_HPP

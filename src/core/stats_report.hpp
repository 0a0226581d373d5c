#ifndef DR_CORE_STATS_REPORT_HPP
#define DR_CORE_STATS_REPORT_HPP

/**
 * @file
 * Full-system statistics reporting. Collects every component's counters
 * into a flat `path value` map (gem5 stats.txt style) that can be
 * dumped as text, CSV, or JSON — the output surface a released
 * simulator needs for scripted analysis.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/hetero_system.hpp"

namespace dr
{

/** One named statistic. */
struct StatEntry
{
    std::string path;
    double value = 0.0;
};

/** A flat snapshot of every statistic in the system. */
class StatsReport
{
  public:
    /** Snapshot a system after run()/advance(). */
    static StatsReport capture(const HeteroSystem &system,
                               Cycle measuredCycles);

    const std::vector<StatEntry> &entries() const { return entries_; }

    /** Value lookup by exact path; fatal() if absent. */
    double value(const std::string &path) const;

    /** Whether a path exists. */
    bool has(const std::string &path) const;

    /** Sum over all paths with the given prefix. */
    double sum(const std::string &prefix) const;

    /** `path value` lines (gem5 stats.txt style). */
    void writeText(std::ostream &out) const;

    /** Two-column CSV with a header. */
    void writeCsv(std::ostream &out) const;

    /** A flat JSON object (NaN/inf as null). Every writer prints
     *  integral values as integers and others round-trip exactly. */
    void writeJson(std::ostream &out) const;

    /** Append one entry. */
    void add(std::string path, double value);

  private:
    std::vector<StatEntry> entries_;
};

} // namespace dr

#endif // DR_CORE_STATS_REPORT_HPP

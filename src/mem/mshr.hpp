#ifndef DR_MEM_MSHR_HPP
#define DR_MEM_MSHR_HPP

/**
 * @file
 * Miss Status Holding Registers. An entry tracks one outstanding line
 * fill and merges up to `targetsPerEntry` requesters. Delegated Replies
 * additionally records, per target, whether the reply must be forwarded
 * to a remote core (a delayed hit serviced on fill, Section IV).
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace dr
{

/** One merged requester waiting on an outstanding fill. */
struct MshrTarget
{
    std::uint64_t reqId = 0;
    NodeId replyTo = invalidNode;  //!< core the data must be sent to
    TrafficClass cls = TrafficClass::Gpu;
    bool remote = false;           //!< target came in via the FRQ
    bool write = false;
};

/** MSHR file keyed by line address. */
class MshrFile
{
  public:
    MshrFile(int entries, int targetsPerEntry);

    bool full() const { return static_cast<int>(map_.size()) >= entries_; }
    int used() const { return static_cast<int>(map_.size()); }
    int entries() const { return entries_; }

    /** Whether a miss to this line is already outstanding. */
    bool outstanding(Addr lineAddr) const;

    /**
     * Allocate an entry for a new outstanding miss. `now` stamps the
     * allocation so the leak checker can age entries.
     * @pre !full() && !outstanding(lineAddr)
     */
    void allocate(Addr lineAddr, const MshrTarget &first, Cycle now = 0);

    /**
     * Merge a target into an outstanding entry.
     * @return false if the entry already has the maximum target count.
     */
    bool addTarget(Addr lineAddr, const MshrTarget &target);

    /** Whether addTarget would succeed. @pre outstanding(lineAddr) */
    bool hasTargetSpace(Addr lineAddr) const;

    /** Targets waiting on a line (valid only while outstanding). */
    const std::vector<MshrTarget> &targets(Addr lineAddr) const;

    /** Release an entry on fill, returning its targets. */
    std::vector<MshrTarget> release(Addr lineAddr);

    // --- leak detection -------------------------------------------------

    /** Age in cycles of the longest-outstanding entry (0 when empty). */
    Cycle oldestAge(Cycle now) const;

    /**
     * Leak check at a drain point (end of kernel / quiesced system):
     * panic()s listing the stuck lines if any entry is still held.
     */
    void checkDrained(const char *owner) const;

    /**
     * Liveness form of the leak check for use mid-run: an entry older
     * than `maxAge` cycles can no longer be explained by DRAM service
     * or network latency — its fill was lost. panic()s naming the line.
     */
    void checkNoLeaks(Cycle now, Cycle maxAge, const char *owner) const;

  private:
    struct Entry
    {
        std::vector<MshrTarget> targets;
        Cycle allocatedAt = 0;
    };

    /** Outstanding lines in a deterministic (sorted) order; every
     *  iteration over the file goes through this so that reports and
     *  panics never expose hash order. */
    std::vector<Addr> sortedLines() const;

    int entries_;
    int targetsPerEntry_;
    // drlint-allow(unordered-container): lookup by line address only;
    // all iteration goes through sortedLines().
    std::unordered_map<Addr, Entry> map_;
};

} // namespace dr

#endif // DR_MEM_MSHR_HPP

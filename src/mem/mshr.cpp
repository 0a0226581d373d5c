#include "mem/mshr.hpp"

#include <algorithm>
#include <sstream>

#include "common/log.hpp"

namespace dr
{

MshrFile::MshrFile(int entries, int targetsPerEntry)
    : entries_(entries), targetsPerEntry_(targetsPerEntry)
{
    if (entries < 1 || targetsPerEntry < 1)
        fatal("MSHR file needs at least one entry and one target");
}

bool
MshrFile::outstanding(Addr lineAddr) const
{
    return map_.contains(lineAddr);
}

void
MshrFile::allocate(Addr lineAddr, const MshrTarget &first, Cycle now)
{
    if (full())
        panic("MSHR allocate on full file");
    if (outstanding(lineAddr))
        panic("MSHR allocate on already-outstanding line");
    map_[lineAddr] = {{first}, now};
}

bool
MshrFile::addTarget(Addr lineAddr, const MshrTarget &target)
{
    auto it = map_.find(lineAddr);
    if (it == map_.end())
        panic("MSHR addTarget on non-outstanding line");
    if (static_cast<int>(it->second.targets.size()) >= targetsPerEntry_)
        return false;
    it->second.targets.push_back(target);
    return true;
}

bool
MshrFile::hasTargetSpace(Addr lineAddr) const
{
    return static_cast<int>(targets(lineAddr).size()) < targetsPerEntry_;
}

const std::vector<MshrTarget> &
MshrFile::targets(Addr lineAddr) const
{
    const auto it = map_.find(lineAddr);
    if (it == map_.end())
        panic("MSHR targets on non-outstanding line");
    return it->second.targets;
}

std::vector<MshrTarget>
MshrFile::release(Addr lineAddr)
{
    auto it = map_.find(lineAddr);
    if (it == map_.end())
        panic("MSHR release on non-outstanding line");
    std::vector<MshrTarget> targets = std::move(it->second.targets);
    map_.erase(it);
    return targets;
}

std::vector<Addr>
MshrFile::sortedLines() const
{
    std::vector<Addr> lines;
    lines.reserve(map_.size());
    // drlint-allow(unordered-iteration): key collection only; the sort
    // below erases the hash order before anyone observes it.
    for (const auto &[addr, entry] : map_)
        lines.push_back(addr);
    std::sort(lines.begin(), lines.end());
    return lines;
}

Cycle
MshrFile::oldestAge(Cycle now) const
{
    Cycle oldest = 0;
    for (const Addr addr : sortedLines()) {
        const Entry &entry = map_.at(addr);
        if (now >= entry.allocatedAt)
            oldest = std::max(oldest, now - entry.allocatedAt);
    }
    return oldest;
}

void
MshrFile::checkDrained(const char *owner) const
{
    if (map_.empty())
        return;
    std::ostringstream lines;
    for (const Addr addr : sortedLines()) {
        lines << " 0x" << std::hex << addr << std::dec << "("
              << map_.at(addr).targets.size() << " targets)";
    }
    panic(owner, ": MSHR leak: ", map_.size(),
          " entries still outstanding at drain:", lines.str());
}

void
MshrFile::checkNoLeaks(Cycle now, Cycle maxAge, const char *owner) const
{
    for (const Addr addr : sortedLines()) {
        const Entry &entry = map_.at(addr);
        if (now >= entry.allocatedAt && now - entry.allocatedAt > maxAge) {
            panic(owner, ": MSHR leak: line 0x", std::hex, addr, std::dec,
                  " outstanding for ", now - entry.allocatedAt,
                  " cycles (bound ", maxAge, "); its fill was lost");
        }
    }
}

} // namespace dr

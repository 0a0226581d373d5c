#include "gpu/l1_cache.hpp"

#include "common/log.hpp"
#include "gpu/shared_l1.hpp"

namespace dr
{

PrivateL1::PrivateL1(const GpuConfig &cfg) : cfg_(cfg)
{
    const CacheParams params{cfg.l1SizeKB * 1024, cfg.l1Assoc,
                             cfg.l1LineBytes};
    tags_.reserve(cfg.numCores);
    for (int c = 0; c < cfg.numCores; ++c)
        tags_.emplace_back(params);
    coreStats_.resize(static_cast<std::size_t>(cfg.numCores));
}

L1Result
PrivateL1::load(int core, Addr lineAddr, Cycle now)
{
    (void)now;
    ++coreStats_[core].loads;
    if (tags_[core].access(lineAddr)) {
        ++coreStats_[core].loadHits;
        return L1Result::Hit;
    }
    return L1Result::Miss;
}

bool
PrivateL1::contains(int core, Addr lineAddr) const
{
    return tags_[core].probe(lineAddr) != nullptr;
}

void
PrivateL1::write(int core, Addr lineAddr, Cycle now)
{
    (void)now;
    ++coreStats_[core].writes;
    // Write-through, no-allocate: the line stays valid if present (it
    // now holds the latest data) and is not installed on a write miss.
    if (tags_[core].access(lineAddr))
        ++coreStats_[core].writeHits;
}

bool
PrivateL1::fill(int core, Addr lineAddr)
{
    return tags_[core].insert(lineAddr, {}).has_value();
}

void
PrivateL1::flush(int core)
{
    ++coreStats_[core].flushes;
    tags_[core].flushAll();
}

const L1OrgStats &
PrivateL1::stats() const
{
    return sumL1StatBanks(coreStats_, aggregate_);
}

int
PrivateL1::hitLatency() const
{
    return cfg_.l1HitLatency;
}

std::unique_ptr<L1Organizer>
makeL1Organizer(const GpuConfig &cfg)
{
    switch (cfg.l1Org) {
      case L1Organization::Private:
        return std::make_unique<PrivateL1>(cfg);
      case L1Organization::DcL1:
        return std::make_unique<SharedL1>(cfg);
      case L1Organization::DynEB:
        return std::make_unique<DynEbL1>(cfg);
    }
    panic("unknown L1 organization");
}

} // namespace dr

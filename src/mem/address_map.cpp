#include "mem/address_map.hpp"

#include <bit>

#include "common/log.hpp"

namespace dr
{

AddressMap::AddressMap(int numMcs, int lineBytes,
                       std::vector<NodeId> memNodeIds, std::uint64_t seed)
    : numMcs_(numMcs), lineBytes_(lineBytes),
      lineShift_(std::countr_zero(static_cast<unsigned>(lineBytes))),
      memNodeIds_(std::move(memNodeIds)), seed_(seed)
{
    if (numMcs_ < 1)
        fatal("address map needs at least one memory controller");
    if (static_cast<int>(memNodeIds_.size()) != numMcs_)
        fatal("address map: one node ID per memory controller required");
    if (lineBytes_ <= 0 ||
        !std::has_single_bit(static_cast<unsigned>(lineBytes_)))
        fatal("address map: line size must be a power of two");
}

int
AddressMap::mcOf(Addr addr) const
{
    // SplitMix-style finalizer over the line address: cheap, high
    // quality, and immune to power-of-two strides.
    std::uint64_t x = (addr >> lineShift_) ^ seed_;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x = x ^ (x >> 31);
    return static_cast<int>(x % static_cast<std::uint64_t>(numMcs_));
}

} // namespace dr

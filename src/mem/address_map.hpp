#ifndef DR_MEM_ADDRESS_MAP_HPP
#define DR_MEM_ADDRESS_MAP_HPP

/**
 * @file
 * Randomized address-to-memory-controller mapping in the spirit of
 * PAE [43]: a hash of the line address picks the controller so that
 * strided access patterns spread evenly over the 8 memory nodes instead
 * of camping on one ("get out of the valley").
 */

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace dr
{

/** Maps line addresses to memory-controller indices and node IDs. */
class AddressMap
{
  public:
    /**
     * @param numMcs number of memory controllers
     * @param lineBytes cache-line size used for alignment (a power
     *                  of two)
     * @param memNodeIds NoC node ID of each controller, indexed by MC
     * @param seed hash seed (PAE-style randomization)
     */
    AddressMap(int numMcs, int lineBytes, std::vector<NodeId> memNodeIds,
               std::uint64_t seed);

    int numMcs() const { return numMcs_; }

    /** Line-aligned address. */
    Addr lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(lineBytes_ - 1);
    }

    /** Memory-controller index owning an address. */
    int mcOf(Addr addr) const;

    /** NoC node of the controller owning an address. */
    NodeId nodeOf(Addr addr) const { return memNodeIds_[mcOf(addr)]; }

    /** NoC node of a controller by index. */
    NodeId nodeOfMc(int mc) const { return memNodeIds_[mc]; }

  private:
    int numMcs_;
    int lineBytes_;
    int lineShift_;  //!< log2(lineBytes_)
    std::vector<NodeId> memNodeIds_;
    std::uint64_t seed_;
};

} // namespace dr

#endif // DR_MEM_ADDRESS_MAP_HPP

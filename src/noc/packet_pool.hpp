#ifndef DR_NOC_PACKET_POOL_HPP
#define DR_NOC_PACKET_POOL_HPP

/**
 * @file
 * Slab allocator for in-flight packets. The Network previously kept
 * packets in a std::unordered_map<PacketId, Packet>, paying a hash
 * lookup on every NI injection, ejection, and scheduling decision; the
 * pool replaces the map with a flat slab indexed by a stable handle
 * that flits carry instead of the (debug-facing) PacketId. Released
 * slots go onto a free list and are reused, so steady-state traffic
 * allocates nothing.
 *
 * Ownership (DESIGN.md §11, §12): each spatial domain owns one pool,
 * named in the low handle bits. alloc() and release() run in the owning
 * domain's compute phase (the endpoints inject in their ticks; the
 * domain releases the slots the serial merge listed for it at the start
 * of its next compute run) or in serial code. A serial inject between
 * ticks allocates before that release, so the free-list order is not
 * the delivery order; slot numbers feed no result. The domain a tail
 * ejects in reads the slot while the owner may be allocating, so slots
 * never move: the slab grows by chunks that double in size.
 */

#include <array>
#include <bit>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/invariant.hpp"
#include "common/ownership.hpp"
#include "noc/flit.hpp"

namespace dr
{

class PacketPool
{
  public:
    /** Low handle bits naming the owning pool (NocConfig::maxThreads
     *  domains fit). */
    static constexpr int kOwnerBits = 8;

    /** The pool (domain) a handle belongs to. */
    static int
    ownerOf(PacketHandle h)
    {
        return h & ((1 << kOwnerBits) - 1);
    }

    explicit PacketPool(int owner = 0) : owner_(owner)
    {
        DR_ASSERT(owner >= 0 && owner < (1 << kOwnerBits));
    }

    /** Claim a slot. The returned packet holds stale contents; the
     *  caller overwrites every field. */
    PacketHandle
    alloc() DR_COMPUTE_PHASE
    {
        std::size_t index;
        if (!free_.empty()) {
            index = free_.back();
            free_.pop_back();
        } else {
            index = slots_++;
            const std::size_t c = chunkOf(index);
            DR_ASSERT(c < kChunks);
            if (!chunks_[c])
                chunks_[c] = std::make_unique<Slot[]>(kFirstChunk << c);
        }
        slot(index).live = true;
        return static_cast<PacketHandle>(index << kOwnerBits | owner_);
    }

    void
    release(PacketHandle h) DR_COMPUTE_PHASE
    {
        DR_PHASE_ASSERT_DOMAIN(owner_);
        DR_ASSERT(isLive(h));
        const std::size_t index = indexOf(h);
        slot(index).live = false;
        free_.push_back(index);
    }

    Packet &operator[](PacketHandle h) DR_PHASE_READ
    {
        DR_ASSERT(isLive(h));
        return slot(indexOf(h)).packet;
    }

    const Packet &operator[](PacketHandle h) const DR_PHASE_READ
    {
        DR_ASSERT(isLive(h));
        return slot(indexOf(h)).packet;
    }

    /** Whether `h` names an allocated slot of this pool (cheap; any
     *  build type; safe while the owner allocates). */
    bool
    isLive(PacketHandle h) const DR_PHASE_READ
    {
        if (h < 0 || ownerOf(h) != owner_)
            return false;
        const std::size_t index = indexOf(h);
        const std::size_t c = chunkOf(index);
        return c < kChunks && chunks_[c] &&
               chunks_[c][index - chunkBase(c)].live;
    }

  private:
    struct Slot
    {
        Packet packet;
        bool live = false;
    };

    /** Chunk c holds 64 << c slots, from index 64 * (2^c - 1) on.
     *  Seventeen chunks hold just under the 2^23 indices a handle can
     *  name above its owner bits. */
    static constexpr std::size_t kFirstChunk = 64;
    static constexpr std::size_t kChunks = 17;

    static std::size_t
    chunkOf(std::size_t index)
    {
        return static_cast<std::size_t>(
                   std::bit_width(index / kFirstChunk + 1)) - 1;
    }

    static std::size_t
    chunkBase(std::size_t c)
    {
        return kFirstChunk * ((std::size_t{1} << c) - 1);
    }

    static std::size_t
    indexOf(PacketHandle h)
    {
        return static_cast<std::size_t>(h) >> kOwnerBits;
    }

    Slot &
    slot(std::size_t index) const
    {
        const std::size_t c = chunkOf(index);
        return chunks_[c][index - chunkBase(c)];
    }

    int owner_ DR_DOMAIN_OWNED;
    std::array<std::unique_ptr<Slot[]>, kChunks> chunks_ DR_DOMAIN_OWNED;
    std::vector<std::size_t> free_ DR_DOMAIN_OWNED;
    std::size_t slots_ DR_DOMAIN_OWNED = 0;  //!< indices handed out so far
};

} // namespace dr

#endif // DR_NOC_PACKET_POOL_HPP

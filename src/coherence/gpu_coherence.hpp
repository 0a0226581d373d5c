#ifndef DR_COHERENCE_GPU_COHERENCE_HPP
#define DR_COHERENCE_GPU_COHERENCE_HPP

/**
 * @file
 * Software-managed GPU coherence (Section IV, "Coherence implications").
 * GPU L1 caches are write-through and are flushed (invalidated) at
 * kernel boundaries via compiler-inserted cache control operations.
 *
 * Delegated Replies interacts with this scheme in two ways:
 *  - A write invalidates the LLC core pointer for that line, so later
 *    requesters always receive the most recent copy from the LLC.
 *  - An L1 flush must invalidate every LLC core pointer naming that
 *    core. We implement this with per-core epochs: a pointer stores the
 *    epoch at which it was written and is only valid while the core's
 *    epoch is unchanged — an O(1) bulk invalidation.
 */

#include <cstdint>
#include <vector>

#include "common/ownership.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dr
{

/**
 * Chip-wide software-coherence state for the GPU domain.
 *
 * The epoch table is shared by every SM core and memory node, so it is
 * DR_SERIAL_ONLY (DESIGN.md §12): flush() runs only in the serial
 * merge, from the CTA refill at a kernel boundary (DESIGN.md §13); the
 * parallel phases may read it (frozen while workers run).
 */
class GpuCoherence
{
  public:
    explicit GpuCoherence(int numGpuCores);

    int numCores() const DR_PHASE_READ
    {
        return static_cast<int>(epochs_.size());
    }

    /** Current flush epoch of a core. */
    std::uint32_t epochOf(int gpuCoreIdx) const DR_PHASE_READ
    {
        return epochs_[gpuCoreIdx];
    }

    /**
     * Record an L1 flush (kernel boundary). All core pointers naming
     * this core become stale instantly.
     */
    void flush(int gpuCoreIdx) DR_COMMIT_PHASE;

    /** Whether a pointer written at `epoch` for this core is current. */
    bool
    pointerValid(int gpuCoreIdx, std::uint32_t epoch) const DR_PHASE_READ
    {
        return epochs_[gpuCoreIdx] == epoch;
    }

    const Counter &flushes() const DR_PHASE_READ { return flushes_; }

  private:
    std::vector<std::uint32_t> epochs_ DR_SERIAL_ONLY;
    Counter flushes_ DR_SERIAL_ONLY;
};

} // namespace dr

#endif // DR_COHERENCE_GPU_COHERENCE_HPP

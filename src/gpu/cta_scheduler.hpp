#ifndef DR_GPU_CTA_SCHEDULER_HPP
#define DR_GPU_CTA_SCHEDULER_HPP

/**
 * @file
 * CTA (thread-block) scheduling. Round-robin hands out CTAs in launch
 * order to whichever core asks next — adjacent CTAs land on different
 * cores, which is what creates *inter-core* locality for halo-sharing
 * kernels. Distributed scheduling gives each core a contiguous chunk of
 * the grid, trading inter-core locality for intra-core locality
 * (Figure 15). When the grid is exhausted the kernel relaunches
 * (iterative kernels), which is a software-coherence flush boundary.
 */

#include <cstdint>
#include <vector>

#include "common/ownership.hpp"
#include "common/types.hpp"

namespace dr
{

/** A CTA handed to a core, tagged with the kernel launch it belongs to. */
struct CtaAssignment
{
    int cta = -1;
    std::uint32_t kernelInstance = 0;
};

/**
 * Grid-wide CTA scheduler shared by all SM cores.
 *
 * One scheduler is shared by every SM core, so its cursors are
 * DR_SERIAL_ONLY (DESIGN.md §12): next() runs only in the serial merge,
 * where SmCore::refillCtas hands out the CTA slots each core's tick
 * staged (DESIGN.md §13).
 */
class CtaScheduler
{
  public:
    CtaScheduler(CtaSchedule policy, int ctaCount, int numCores);

    /** Next CTA for `core`; kernels relaunch indefinitely. */
    CtaAssignment next(int core) DR_COMMIT_PHASE;

    CtaSchedule policy() const DR_PHASE_READ { return policy_; }
    std::uint32_t launches() const DR_PHASE_READ { return globalInstance_; }

  private:
    CtaSchedule policy_ DR_SERIAL_ONLY;
    int ctaCount_ DR_SERIAL_ONLY;
    int numCores_ DR_SERIAL_ONLY;

    // Round-robin state.
    int rrNext_ DR_SERIAL_ONLY = 0;
    std::uint32_t globalInstance_ DR_SERIAL_ONLY = 0;

    // Distributed state: per-core cursor and instance.
    std::vector<int> cursor_ DR_SERIAL_ONLY;
    std::vector<std::uint32_t> instance_ DR_SERIAL_ONLY;
};

} // namespace dr

#endif // DR_GPU_CTA_SCHEDULER_HPP

#ifndef DR_NOC_ACTIVE_SET_HPP
#define DR_NOC_ACTIVE_SET_HPP

/**
 * @file
 * Work list for active-set scheduling. Routers and NIs register here
 * when they receive work (flits, credits, queued packets) and are
 * swept once per cycle; entities not in the set are not ticked at all.
 * At low injection rates most of the mesh is idle, so the sweep visits
 * a small fraction of the network.
 *
 * Representation: one bit per entity, swept word-by-word with
 * count-trailing-zeros. Members are always visited in ascending index
 * order — exactly the order the old tick-everything loop used, and the
 * skipped entities were no-ops there, so schedules are bit-identical.
 * Registration is a single OR; no allocation, no sorting.
 *
 * Ownership (DESIGN.md §12): each ActiveSet instance lives inside one
 * spatial domain (Network::Domain holds per-domain router/NI sets), so
 * the whole structure is DR_DOMAIN_OWNED through its container — only
 * the owning domain's worker adds/sweeps it during a parallel phase.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include "common/ownership.hpp"

namespace dr
{

class DR_DOMAIN_OWNED ActiveSet
{
  public:
    ActiveSet() = default;

    explicit ActiveSet(int count)
        : words_(static_cast<std::size_t>(count + 63) / 64, 0)
    {
    }

    /** Register an entity; idempotent while it stays in the set. */
    void
    add(int idx)
    {
        words_[static_cast<std::size_t>(idx) >> 6] |=
            std::uint64_t{1} << (idx & 63);
    }

    bool
    contains(int idx) const
    {
        return (words_[static_cast<std::size_t>(idx) >> 6] >>
                (idx & 63)) & 1;
    }

    /** True when no entity is registered (quiescence vote input). */
    bool
    empty() const
    {
        for (const std::uint64_t w : words_) {
            if (w)
                return false;
        }
        return true;
    }

    /**
     * Visit every member in ascending index order. `fn(idx)` returns
     * whether the entity still has work; entities returning false are
     * removed (and re-register via add() when new work arrives).
     * Entities woken *during* the sweep stay registered; if their index
     * is ahead of the sweep position they are visited this cycle, which
     * is harmless — their new work is timestamped for a later cycle, so
     * the visit no-ops and they remain in the set.
     */
    template <typename Fn>
    void
    sweep(Fn &&fn)
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t pending = words_[w];
            if (!pending)
                continue;
            // Clear the word up front so wakes issued by fn() — even
            // for entities in this very word — survive the merge below.
            words_[w] = 0;
            std::uint64_t keep = 0;
            const int base = static_cast<int>(w) * 64;
            while (pending) {
                const int bit = std::countr_zero(pending);
                pending &= pending - 1;
                if (fn(base + bit))
                    keep |= std::uint64_t{1} << bit;
            }
            words_[w] |= keep;
        }
    }

  private:
    std::vector<std::uint64_t> words_ DR_DOMAIN_OWNED;
};

} // namespace dr

#endif // DR_NOC_ACTIVE_SET_HPP

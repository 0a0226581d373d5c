#ifndef DR_MEM_CACHE_HPP
#define DR_MEM_CACHE_HPP

/**
 * @file
 * Generic set-associative tag store with true-LRU replacement. Used for
 * GPU L1 caches (with write-through metadata) and LLC slices (with the
 * Delegated Replies core pointer as per-line metadata).
 */

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace dr
{

/** Geometry of a set-associative cache. */
struct CacheParams
{
    int sizeBytes = 0;
    int assoc = 0;
    int lineBytes = 0;

    int sets() const { return sizeBytes / (assoc * lineBytes); }
};

/**
 * Set-associative tag store. `MetaT` attaches per-line metadata (e.g.,
 * the LLC core pointer). The cache tracks tags only — the simulator
 * never models data contents.
 */
template <typename MetaT>
class SetAssocCache
{
  public:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        MetaT meta{};
    };

    explicit SetAssocCache(const CacheParams &params)
        : params_(params), sets_(params.sets()),
          lineShift_(std::countr_zero(
              static_cast<unsigned>(params.lineBytes))),
          lines_(static_cast<std::size_t>(sets_) * params.assoc),
          lru_(lines_.size(), 0)
    {
        if (params.sizeBytes <= 0 || params.assoc <= 0 ||
            params.lineBytes <= 0) {
            fatal("cache: all geometry parameters must be positive");
        }
        if (!std::has_single_bit(static_cast<unsigned>(params.lineBytes)))
            fatal("cache: line size must be a power of two");
        if (params.sizeBytes % (params.assoc * params.lineBytes) != 0)
            fatal("cache: size must be a whole number of sets");
        // Modulo indexing supports non-power-of-two set counts (e.g.,
        // the 48 KB GPU L1 has 96 sets).
    }

    int sets() const { return sets_; }
    int assoc() const { return params_.assoc; }
    int lineBytes() const { return params_.lineBytes; }

    /** Line-aligned address. */
    Addr lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(params_.lineBytes - 1);
    }

    /**
     * Look up a line and update LRU on hit.
     * @return the hit line or nullptr.
     */
    Line *
    access(Addr addr)
    {
        const int set = setOf(addr);
        const Addr tag = tagOf(addr);
        for (int w = 0; w < params_.assoc; ++w) {
            Line &line = lines_[index(set, w)];
            if (line.valid && line.tag == tag) {
                touch(set, w);
                return &line;
            }
        }
        return nullptr;
    }

    /** Look up without disturbing LRU state. */
    const Line *
    probe(Addr addr) const
    {
        const int set = setOf(addr);
        const Addr tag = tagOf(addr);
        for (int w = 0; w < params_.assoc; ++w) {
            const Line &line = lines_[index(set, w)];
            if (line.valid && line.tag == tag)
                return &line;
        }
        return nullptr;
    }

    /** An evicted line: address plus its metadata at eviction time. */
    struct Evicted
    {
        Addr addr;
        MetaT meta;
    };

    /**
     * Insert a line (allocate-on-miss), evicting the LRU way.
     * @return the victim (address + metadata) if a valid line was evicted.
     */
    std::optional<Evicted>
    insert(Addr addr, const MetaT &meta)
    {
        const int set = setOf(addr);
        const Addr tag = tagOf(addr);
        int victim = 0;
        std::uint64_t oldest = UINT64_MAX;
        for (int w = 0; w < params_.assoc; ++w) {
            Line &line = lines_[index(set, w)];
            if (line.valid && line.tag == tag) {
                // Re-insert over an existing line: refresh metadata.
                line.meta = meta;
                touch(set, w);
                return std::nullopt;
            }
            if (!line.valid) {
                victim = w;
                oldest = 0;
            } else if (lru_[index(set, w)] < oldest) {
                victim = w;
                oldest = lru_[index(set, w)];
            }
        }
        Line &line = lines_[index(set, victim)];
        std::optional<Evicted> evicted;
        if (line.valid)
            evicted = Evicted{reconstruct(set, line.tag), line.meta};
        line.valid = true;
        line.tag = tag;
        line.meta = meta;
        touch(set, victim);
        return evicted;
    }

    /**
     * Whether insert(addr) would evict a valid line, judged against the
     * current contents without mutating anything: the line is absent
     * and its set has no free way. Staged L1 organizations predict a
     * fill's eviction signal from the frozen pre-cycle tags with this.
     */
    bool
    wouldEvict(Addr addr) const
    {
        const int set = setOf(addr);
        const Addr tag = tagOf(addr);
        for (int w = 0; w < params_.assoc; ++w) {
            const Line &line = lines_[index(set, w)];
            if (!line.valid || line.tag == tag)
                return false;
        }
        return true;
    }

    /** Invalidate one line if present. @return true if it was present. */
    bool
    invalidate(Addr addr)
    {
        const int set = setOf(addr);
        const Addr tag = tagOf(addr);
        for (int w = 0; w < params_.assoc; ++w) {
            Line &line = lines_[index(set, w)];
            if (line.valid && line.tag == tag) {
                line.valid = false;
                return true;
            }
        }
        return false;
    }

    /** Invalidate everything (kernel-boundary flush). */
    void
    flushAll()
    {
        for (auto &line : lines_)
            line.valid = false;
    }

    /** Apply `fn` to every valid line. */
    void
    forEachLine(const std::function<void(Addr, MetaT &)> &fn)
    {
        for (int set = 0; set < sets_; ++set) {
            for (int w = 0; w < params_.assoc; ++w) {
                Line &line = lines_[index(set, w)];
                if (line.valid)
                    fn(reconstruct(set, line.tag), line.meta);
            }
        }
    }

    /** Number of valid lines (diagnostics). */
    int
    validLines() const
    {
        int count = 0;
        for (const auto &line : lines_)
            count += line.valid;
        return count;
    }

  private:
    int setOf(Addr addr) const
    {
        return static_cast<int>((addr >> lineShift_) % sets_);
    }

    Addr tagOf(Addr addr) const
    {
        return (addr >> lineShift_) / sets_;
    }

    Addr reconstruct(int set, Addr tag) const
    {
        return (tag * sets_ + set) * params_.lineBytes;
    }

    std::size_t index(int set, int way) const
    {
        return static_cast<std::size_t>(set) * params_.assoc + way;
    }

    void touch(int set, int way) { lru_[index(set, way)] = ++clock_; }

    CacheParams params_;
    int sets_;
    int lineShift_;  //!< log2 of the line size
    std::vector<Line> lines_;
    std::vector<std::uint64_t> lru_;
    std::uint64_t clock_ = 0;
};

} // namespace dr

#endif // DR_MEM_CACHE_HPP

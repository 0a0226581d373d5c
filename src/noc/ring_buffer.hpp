#ifndef DR_NOC_RING_BUFFER_HPP
#define DR_NOC_RING_BUFFER_HPP

/**
 * @file
 * Bounded ring buffer (FIFO) over a contiguous power-of-two array. The
 * NoC hot paths (router input VCs, NI injection queues) previously
 * used std::deque, whose segmented storage costs an indirection per
 * access and an allocation every few pushes; these queues all have
 * small static bounds (VC depths, injection-buffer capacities), so a
 * ring over one flat array never reallocates in steady state. Growth
 * is kept as a safety valve: if a queue exceeds its reserved capacity
 * the ring doubles, preserving FIFO order.
 *
 * Ownership (DESIGN.md §12): a RingBuffer carries no annotation of its
 * own — every instance is embedded in an annotated structure (router
 * input VCs inside DR_DOMAIN_OWNED Router, NI queues inside
 * DR_DOMAIN_OWNED Ni) and inherits that structure's phase/domain
 * classification.
 */

#include <cstddef>
#include <vector>

namespace dr
{

template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;

    /** Pre-size to at least `n` slots (rounded up to a power of two). */
    void
    reserve(std::size_t n)
    {
        if (n > buf_.size())
            rebuild(roundUpPow2(n));
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            rebuild(buf_.empty() ? 8 : buf_.size() * 2);
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    /** Reallocate to `cap` slots, linearizing the live range. */
    void
    rebuild(std::size_t cap)
    {
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = buf_[(head_ + i) & mask_];
        buf_ = std::move(next);
        head_ = 0;
        mask_ = cap - 1;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace dr

#endif // DR_NOC_RING_BUFFER_HPP

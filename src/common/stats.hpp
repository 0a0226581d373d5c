#ifndef DR_COMMON_STATS_HPP
#define DR_COMMON_STATS_HPP

/**
 * @file
 * Lightweight statistics package: the plain stat objects (Counter,
 * Average) that components own.
 */

#include <cstdint>

namespace dr
{

/** Monotonic event counter. */
class Counter
{
  public:
    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean over observed samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

} // namespace dr

#endif // DR_COMMON_STATS_HPP

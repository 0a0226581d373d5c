#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace dr
{
namespace
{

TEST(Counter, StartsAtZeroAndCounts)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, EmptyMeanIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

TEST(Average, ComputesMean)
{
    Average a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Average, ResetClears)
{
    Average a;
    a.sample(10.0);
    a.reset();
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
}

} // namespace
} // namespace dr

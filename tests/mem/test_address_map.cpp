#include <gtest/gtest.h>

#include <vector>

#include "mem/address_map.hpp"

namespace dr
{
namespace
{

AddressMap
makeMap()
{
    return AddressMap(8, 128, {2, 10, 18, 26, 34, 42, 50, 58}, 0x5eed);
}

TEST(AddressMap, Deterministic)
{
    const AddressMap a = makeMap();
    const AddressMap b = makeMap();
    for (Addr addr = 0; addr < 100 * 128; addr += 128)
        EXPECT_EQ(a.mcOf(addr), b.mcOf(addr));
}

TEST(AddressMap, SameLineSameController)
{
    const AddressMap map = makeMap();
    EXPECT_EQ(map.mcOf(0x1000), map.mcOf(0x1000 + 127));
}

TEST(AddressMap, LineAlignment)
{
    const AddressMap map = makeMap();
    EXPECT_EQ(map.lineAddr(0x1085), 0x1080u);
}

TEST(AddressMapDeath, NonPowerOfTwoLineIsFatal)
{
    // mcOf shifts out the line offset; a 96-byte line would misalign.
    EXPECT_EXIT(AddressMap(1, 96, {0}, 0), testing::ExitedWithCode(1),
                "line size must be a power of two");
}

TEST(AddressMap, NodeLookupMatchesMcList)
{
    const AddressMap map = makeMap();
    for (Addr addr = 0; addr < 64 * 128; addr += 128) {
        const int mc = map.mcOf(addr);
        EXPECT_EQ(map.nodeOf(addr), map.nodeOfMc(mc));
    }
}

TEST(AddressMap, BalancedOverSequentialLines)
{
    // PAE-style hashing must spread a sequential stream evenly.
    const AddressMap map = makeMap();
    std::vector<int> counts(8, 0);
    const int lines = 80000;
    for (int i = 0; i < lines; ++i)
        ++counts[map.mcOf(static_cast<Addr>(i) * 128)];
    for (const int c : counts) {
        EXPECT_GT(c, lines / 8 * 0.9);
        EXPECT_LT(c, lines / 8 * 1.1);
    }
}

TEST(AddressMap, BalancedOverPowerOfTwoStrides)
{
    // The failure mode PAE [43] fixes: large power-of-two strides must
    // not camp on one controller.
    const AddressMap map = makeMap();
    std::vector<int> counts(8, 0);
    const int n = 8000;
    for (int i = 0; i < n; ++i)
        ++counts[map.mcOf(static_cast<Addr>(i) * 4096)];
    for (const int c : counts) {
        EXPECT_GT(c, n / 8 * 0.8);
        EXPECT_LT(c, n / 8 * 1.2);
    }
}

TEST(AddressMap, DifferentSeedsGiveDifferentMappings)
{
    const AddressMap a(8, 128, {0, 1, 2, 3, 4, 5, 6, 7}, 1);
    const AddressMap b(8, 128, {0, 1, 2, 3, 4, 5, 6, 7}, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.mcOf(static_cast<Addr>(i) * 128) ==
                b.mcOf(static_cast<Addr>(i) * 128);
    EXPECT_LT(same, 300);
}

} // namespace
} // namespace dr

#include <gtest/gtest.h>

#include "mem/cache.hpp"

namespace dr
{
namespace
{

struct Meta
{
    int tag = 0;
    bool dirty = false;
};

using Cache = SetAssocCache<Meta>;

CacheParams
smallParams()
{
    // 4 sets x 2 ways x 128 B lines.
    return {1024, 2, 128};
}

TEST(Cache, GeometryDerived)
{
    Cache c(smallParams());
    EXPECT_EQ(c.sets(), 4);
    EXPECT_EQ(c.assoc(), 2);
    EXPECT_EQ(c.lineBytes(), 128);
}

TEST(Cache, NonPowerOfTwoSetsSupported)
{
    // The 48 KB GPU L1: 96 sets.
    Cache c({48 * 1024, 4, 128});
    EXPECT_EQ(c.sets(), 96);
    c.insert(0x1000, {});
    EXPECT_NE(c.probe(0x1000), nullptr);
}

TEST(CacheDeath, NonPowerOfTwoLineIsFatal)
{
    // Sets and tags are indexed by shifting out the line offset.
    EXPECT_EXIT(Cache({96 * 2 * 4, 2, 96}), testing::ExitedWithCode(1),
                "line size must be a power of two");
}

TEST(Cache, MissThenHit)
{
    Cache c(smallParams());
    EXPECT_EQ(c.access(0x0), nullptr);
    c.insert(0x0, {7, false});
    auto *line = c.access(0x0);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->meta.tag, 7);
}

TEST(Cache, LineAlignment)
{
    Cache c(smallParams());
    c.insert(0x80, {});
    EXPECT_NE(c.access(0x80), nullptr);
    // 0x80 and 0x85 share a line.
    EXPECT_EQ(c.lineAddr(0x85), 0x80u);
}

TEST(Cache, ProbeDoesNotUpdateLru)
{
    Cache c(smallParams());
    // Same set: addresses differ by sets*lineBytes = 512.
    c.insert(0x0, {1, false});
    c.insert(0x200, {2, false});
    // Probe (not access) the older line, then insert a third: the
    // probed line must still be the LRU victim.
    c.probe(0x0);
    auto evicted = c.insert(0x400, {3, false});
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, 0x0u);
}

TEST(Cache, AccessUpdatesLru)
{
    Cache c(smallParams());
    c.insert(0x0, {1, false});
    c.insert(0x200, {2, false});
    c.access(0x0);  // now 0x200 is LRU
    auto evicted = c.insert(0x400, {3, false});
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, 0x200u);
}

TEST(Cache, EvictionReturnsMetadata)
{
    Cache c(smallParams());
    c.insert(0x0, {42, true});
    c.insert(0x200, {1, false});
    auto evicted = c.insert(0x400, {2, false});
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->meta.tag, 42);
    EXPECT_TRUE(evicted->meta.dirty);
}

TEST(Cache, ReinsertRefreshesMetadata)
{
    Cache c(smallParams());
    c.insert(0x0, {1, false});
    auto evicted = c.insert(0x0, {2, true});
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(c.probe(0x0)->meta.tag, 2);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(smallParams());
    c.insert(0x0, {});
    EXPECT_TRUE(c.invalidate(0x0));
    EXPECT_EQ(c.probe(0x0), nullptr);
    EXPECT_FALSE(c.invalidate(0x0));
}

TEST(Cache, FlushAllEmptiesCache)
{
    Cache c(smallParams());
    for (Addr a = 0; a < 8; ++a)
        c.insert(a * 128, {});
    EXPECT_GT(c.validLines(), 0);
    c.flushAll();
    EXPECT_EQ(c.validLines(), 0);
}

TEST(Cache, ForEachLineVisitsAllValid)
{
    Cache c(smallParams());
    c.insert(0x0, {1, false});
    c.insert(0x80, {2, false});
    int count = 0;
    c.forEachLine([&](Addr addr, Meta &meta) {
        ++count;
        EXPECT_TRUE(addr == 0x0 || addr == 0x80);
        (void)meta;
    });
    EXPECT_EQ(count, 2);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache c(smallParams());
    // Fill every set with both ways; nothing should evict.
    for (Addr a = 0; a < 8; ++a)
        EXPECT_FALSE(c.insert(a * 128, {}).has_value());
    EXPECT_EQ(c.validLines(), 8);
}

TEST(CacheProperty, LruIsExactOverRandomTrace)
{
    // Model: under accesses to a single set, the cache keeps exactly
    // the `assoc` most-recently-used lines.
    Cache c(smallParams());
    std::vector<Addr> mru;  // most recent first
    std::uint64_t x = 12345;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const Addr addr = ((x >> 33) % 8) * 512;  // 8 lines, one set
        if (c.probe(addr)) {
            c.access(addr);
        } else {
            c.insert(addr, {});
        }
        std::erase(mru, addr);
        mru.insert(mru.begin(), addr);
        if (mru.size() > 2)
            mru.resize(2);
        for (const Addr m : mru)
            EXPECT_NE(c.probe(m), nullptr) << "line " << m << " evicted";
    }
}

} // namespace
} // namespace dr

#include <gtest/gtest.h>

#include "common/invariant.hpp"
#include "common/ownership.hpp"
#include "gpu/l1_cache.hpp"
#include "gpu/shared_l1.hpp"

namespace dr
{
namespace
{

GpuConfig
cfg()
{
    GpuConfig g;
    g.numCores = 16;
    g.l1SizeKB = 4;
    g.l1Assoc = 4;
    g.l1LineBytes = 128;
    g.dcl1CoresPerCluster = 8;
    g.dcl1Slices = 4;
    return g;
}

/**
 * Drive one cycle of a staged organization the way HeteroSystem does:
 * the caller's lookups (the endpoint phase), then the serial merge that
 * lands the staged effects (DESIGN.md §14).
 */
template <typename Fn>
void
cycle(L1Organizer &l1, Cycle now, Fn &&lookups)
{
    lookups();
    l1.commitCycle(now);
}

TEST(PrivateL1, CoresAreIsolated)
{
    PrivateL1 l1(cfg());
    l1.fill(0, 0x1000);
    EXPECT_TRUE(l1.contains(0, 0x1000));
    EXPECT_FALSE(l1.contains(1, 0x1000));
    EXPECT_EQ(l1.load(1, 0x1000, 0), L1Result::Miss);
    EXPECT_EQ(l1.load(0, 0x1000, 0), L1Result::Hit);
}

TEST(PrivateL1, FlushOnlyAffectsOneCore)
{
    PrivateL1 l1(cfg());
    l1.fill(0, 0x1000);
    l1.fill(1, 0x1000);
    l1.flush(0);
    EXPECT_FALSE(l1.contains(0, 0x1000));
    EXPECT_TRUE(l1.contains(1, 0x1000));
}

TEST(PrivateL1, WriteThroughKeepsLineValid)
{
    PrivateL1 l1(cfg());
    l1.fill(0, 0x1000);
    l1.write(0, 0x1000, 0);
    EXPECT_TRUE(l1.contains(0, 0x1000));
    EXPECT_EQ(l1.stats().writeHits.value(), 1u);
}

TEST(PrivateL1, WriteMissDoesNotAllocate)
{
    PrivateL1 l1(cfg());
    l1.write(0, 0x2000, 0);
    EXPECT_FALSE(l1.contains(0, 0x2000));
}

TEST(SharedL1, ClusterMembersShareLines)
{
    SharedL1 l1(cfg());
    cycle(l1, 0, [&] { l1.fill(0, 0x1000); });
    // Cores 0..7 are one cluster.
    EXPECT_TRUE(l1.contains(7, 0x1000));
    // Core 8 is in the next cluster.
    EXPECT_FALSE(l1.contains(8, 0x1000));
}

TEST(SharedL1, FillIsStagedUntilCommit)
{
    SharedL1 l1(cfg());
    l1.fill(0, 0x1000);
    // The fill is staged against the frozen tags: nothing is visible
    // until the serial merge lands it.
    EXPECT_FALSE(l1.contains(0, 0x1000));
    l1.commitCycle(0);
    EXPECT_TRUE(l1.contains(0, 0x1000));
}

TEST(SharedL1, SlicePortPipelinesSameCycleClaims)
{
    SharedL1 l1(cfg());
    cycle(l1, 0, [&] { l1.fill(0, 0x1000); });
    // Both same-cycle claims are admitted (the decision depends only on
    // the committed pre-cycle port state, never on in-cycle order)...
    cycle(l1, 1, [&] {
        EXPECT_EQ(l1.load(0, 0x1000, 1), L1Result::Hit);
        EXPECT_EQ(l1.load(1, 0x1000, 1), L1Result::Hit);
    });
    // ...and the pipelined port then drains one access per cycle: two
    // claims at cycle 1 keep the slice busy through cycle 2.
    cycle(l1, 2, [&] {
        EXPECT_EQ(l1.load(1, 0x1000, 2), L1Result::PortBusy);
    });
    EXPECT_EQ(l1.stats().portConflicts.value(), 1u);
    cycle(l1, 3, [&] {
        EXPECT_EQ(l1.load(1, 0x1000, 3), L1Result::Hit);
    });
}

TEST(SharedL1, SingleClaimFreesPortNextCycle)
{
    SharedL1 l1(cfg());
    cycle(l1, 0, [&] { l1.fill(0, 0x1000); });
    cycle(l1, 1, [&] {
        EXPECT_EQ(l1.load(0, 0x1000, 1), L1Result::Hit);
    });
    // One claim per cycle sustains full throughput: no conflicts.
    cycle(l1, 2, [&] {
        EXPECT_EQ(l1.load(0, 0x1000, 2), L1Result::Hit);
    });
    EXPECT_EQ(l1.stats().portConflicts.value(), 0u);
}

TEST(SharedL1, DifferentSlicesAccessInParallel)
{
    SharedL1 l1(cfg());
    cycle(l1, 0, [&] {
        l1.fill(0, 0x1000);
        l1.fill(0, 0x1080);  // adjacent line -> different slice
    });
    EXPECT_NE(l1.sliceOf(0x1000), l1.sliceOf(0x1080));
    cycle(l1, 1, [&] {
        EXPECT_EQ(l1.load(0, 0x1000, 1), L1Result::Hit);
        EXPECT_EQ(l1.load(1, 0x1080, 1), L1Result::Hit);
    });
    // Distinct slices, distinct ports: both again next cycle.
    cycle(l1, 2, [&] {
        EXPECT_EQ(l1.load(0, 0x1000, 2), L1Result::Hit);
        EXPECT_EQ(l1.load(1, 0x1080, 2), L1Result::Hit);
    });
    EXPECT_EQ(l1.stats().portConflicts.value(), 0u);
}

TEST(SharedL1, CapacityEqualsClusterSum)
{
    // 8 cores x 4 KB = 32 KB per cluster: 256 lines fit without
    // eviction when spread over sets. One fill per cycle so each
    // eviction prediction is judged against committed tags.
    SharedL1 l1(cfg());
    int evictions = 0;
    for (int i = 0; i < 256; ++i) {
        cycle(l1, static_cast<Cycle>(i), [&] {
            evictions += l1.fill(0, static_cast<Addr>(i) * 128);
        });
    }
    EXPECT_EQ(evictions, 0);
}

TEST(SharedL1, HitLatencyIncludesClusterInterconnect)
{
    SharedL1 shared(cfg());
    PrivateL1 priv(cfg());
    EXPECT_GT(shared.hitLatency(), priv.hitLatency());
}

TEST(SharedL1, FlushInvalidatesWholeCluster)
{
    SharedL1 l1(cfg());
    cycle(l1, 0, [&] {
        l1.fill(0, 0x1000);
        l1.fill(3, 0x2000);
    });
    l1.flush(1);  // any member flushes the cluster
    EXPECT_FALSE(l1.contains(0, 0x1000));
    EXPECT_FALSE(l1.contains(3, 0x2000));
}

TEST(SharedL1, FlushDropsStagedEffects)
{
    SharedL1 l1(cfg());
    l1.fill(0, 0x1000);
    // Flush lands between stage and commit: the staged fill must not
    // resurrect the invalidated cluster at the merge.
    l1.flush(0);
    l1.commitCycle(0);
    EXPECT_FALSE(l1.contains(0, 0x1000));
}

TEST(SharedL1, ConcurrentLookupsAreStampChecked)
{
    if (!checkedBuild())
        GTEST_SKIP() << "stamp checks need a DR_CHECKED build";
    SharedL1 l1(cfg());
    l1.setCoreDomain(0, 0);
    l1.setCoreDomain(1, 1);
    // A lookup for core 1 issued from domain 0's compute worker writes
    // core 1's staged bank cross-domain: the writer stamp must panic.
    EXPECT_DEATH(
        {
            phase::ComputeScope cs(0);
            l1.load(1, 0x1000, 0);
        },
        "phase violation");
}

TEST(DynEb, StartsInSharedMode)
{
    DynEbL1 l1(cfg());
    EXPECT_TRUE(l1.sharedActive());
}

TEST(DynEb, CommitsToPrivateUnderPortConflicts)
{
    // Hammer one shared line from many cores: shared mode suffers port
    // conflicts; after probing, DynEB must fall back to private.
    DynEbL1 l1(cfg());
    for (Cycle now = 0; now < 12000; ++now) {
        cycle(l1, now, [&] {
            for (int core = 0; core < 8; ++core) {
                if (l1.load(core, 0x1000, now) == L1Result::Miss)
                    l1.fill(core, 0x1000);
            }
        });
    }
    EXPECT_FALSE(l1.sharedActive());
}

TEST(DynEb, FlushRestartsProbing)
{
    DynEbL1 l1(cfg());
    for (Cycle now = 0; now < 12000; ++now) {
        cycle(l1, now, [&] {
            for (int core = 0; core < 8; ++core) {
                if (l1.load(core, 0x1000, now) == L1Result::Miss)
                    l1.fill(core, 0x1000);
            }
        });
    }
    ASSERT_FALSE(l1.sharedActive());
    l1.flush(0);
    EXPECT_TRUE(l1.sharedActive());  // probing again
}

TEST(Factory, BuildsConfiguredOrganization)
{
    GpuConfig g = cfg();
    g.l1Org = L1Organization::Private;
    EXPECT_NE(dynamic_cast<PrivateL1 *>(makeL1Organizer(g).get()), nullptr);
    g.l1Org = L1Organization::DcL1;
    EXPECT_NE(dynamic_cast<SharedL1 *>(makeL1Organizer(g).get()), nullptr);
    g.l1Org = L1Organization::DynEB;
    EXPECT_NE(dynamic_cast<DynEbL1 *>(makeL1Organizer(g).get()), nullptr);
}

} // namespace
} // namespace dr

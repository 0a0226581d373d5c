#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "noc/interconnect.hpp"
#include "noc/parallel.hpp"

#include <sched.h>
#include <unistd.h>

namespace dr
{
namespace
{

/**
 * TickPool (DESIGN.md §11): the one worker pool the networks and the
 * endpoints share. These tests pin its contract directly: every
 * domain's job runs exactly once per run(), in lockstep; a pool whose
 * workers went to sleep wakes on the next run; and destruction joins
 * cleanly whether the workers are spinning or asleep.
 */

constexpr int kDomains = 4;

/** Per-domain run counters, one cache line each. */
struct alignas(64) Slot
{
    std::uint64_t runs = 0;
    std::uint64_t outOfStep = 0;
};

/** One run that bumps every domain's counter and checks lockstep. */
void
runOnce(TickPool &pool, std::vector<Slot> &slots, std::uint64_t round)
{
    pool.run([&](int d) {
        Slot &s = slots[static_cast<std::size_t>(d)];
        if (s.runs != round)
            ++s.outOfStep;
        ++s.runs;
    });
}

/** Wait (bounded) until every worker of `pool` is asleep. */
bool
waitUntilAsleep(const TickPool &pool)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (pool.sleeping() != pool.size() - 1) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(TickPool, EveryDomainRunsExactlyOncePerRun)
{
    constexpr std::uint64_t kRuns = 100000;
    TickPool pool(kDomains);
    std::vector<Slot> slots(kDomains);
    for (std::uint64_t r = 0; r < kRuns; ++r)
        runOnce(pool, slots, r);
    for (int d = 0; d < kDomains; ++d) {
        EXPECT_EQ(slots[d].runs, kRuns) << "domain " << d;
        EXPECT_EQ(slots[d].outOfStep, 0u) << "domain " << d;
    }
}

TEST(TickPool, SingleDomainRunsOnTheCaller)
{
    TickPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    int calls = 0;
    pool.run([&](int d) {
        EXPECT_EQ(d, 0);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(TickPool, SleepingWorkersWakeOnTheNextRun)
{
    TickPool pool(kDomains);
    std::vector<Slot> slots(kDomains);
    runOnce(pool, slots, 0);
    ASSERT_TRUE(waitUntilAsleep(pool));
    for (std::uint64_t r = 1; r < 100; ++r)
        runOnce(pool, slots, r);
    for (int d = 0; d < kDomains; ++d) {
        EXPECT_EQ(slots[d].runs, 100u) << "domain " << d;
        EXPECT_EQ(slots[d].outOfStep, 0u) << "domain " << d;
    }
}

TEST(TickPool, DestructionJoinsSpinningWorkers)
{
    std::vector<Slot> slots(kDomains);
    {
        TickPool pool(kDomains);
        runOnce(pool, slots, 0);
    }  // workers are still spinning on the epoch here
    EXPECT_EQ(slots[kDomains - 1].runs, 1u);
}

TEST(TickPool, DestructionJoinsSleepingWorkers)
{
    TickPool pool(kDomains);
    std::vector<Slot> slots(kDomains);
    runOnce(pool, slots, 0);
    EXPECT_TRUE(waitUntilAsleep(pool));
}

TEST(TickPool, UnusedPoolStartsNoThreads)
{
    // Construction alone spawns nothing; destruction has nothing to join.
    TickPool pool(kDomains);
    EXPECT_EQ(pool.size(), kDomains);
    EXPECT_EQ(pool.sleeping(), 0);
}

TEST(CpuCount, AffinityThenHardwareThenOne)
{
    EXPECT_EQ(cpuCount(3, 8), 3);   // the affinity mask wins
    EXPECT_EQ(cpuCount(0, 8), 8);   // mask unreadable: hardware count
    EXPECT_EQ(cpuCount(-1, 8), 8);
    EXPECT_EQ(cpuCount(0, 0), 1);   // neither known: one CPU
    EXPECT_GE(availableCpus(), 1);
}

/**
 * A chip at noc.threads=2 in a process pinned to one CPU warns when its
 * pool starts (one worker thread). The pin lives in a child process.
 */
TEST(TickPoolDeathTest, OversubscriptionWarnsOnStart)
{
    EXPECT_EXIT(
        {
            cpu_set_t set;
            CPU_ZERO(&set);
            if (sched_getaffinity(0, sizeof(set), &set) != 0)
                _exit(2);
            int first = 0;
            while (!CPU_ISSET(first, &set))
                ++first;
            CPU_ZERO(&set);
            CPU_SET(first, &set);
            if (sched_setaffinity(0, sizeof(set), &set) != 0)
                _exit(3);
            SystemConfig cfg = SystemConfig::makeSmall();
            cfg.noc.threads = 2;
            Interconnect ic(cfg, std::vector<NodeType>(
                                     static_cast<std::size_t>(
                                         cfg.nodeCount()),
                                     NodeType::GpuCore));
            ic.tickPool().run([](int) {});  // idle nets skip tick()
            std::exit(ic.tickPool().size() == 2 ? 0 : 4);
        },
        ::testing::ExitedWithCode(0),
        "warn: tick pool: 2 domains \\(noc.threads\\) on 1 CPUs");
}

} // namespace
} // namespace dr

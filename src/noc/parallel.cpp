#include "noc/parallel.hpp"

#include <sched.h>

#include <chrono>

#include "common/log.hpp"

namespace dr
{

int
cpuCount(int affinityCpus, unsigned hardwareThreads)
{
    if (affinityCpus > 0)
        return affinityCpus;
    if (hardwareThreads > 0)
        return static_cast<int>(hardwareThreads);
    return 1;
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int affinity =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
    return cpuCount(affinity, std::thread::hardware_concurrency());
}

/** Idle time after which a spinning worker blocks instead. */
constexpr std::chrono::milliseconds kSleepAfter{1};

TickPool::TickPool(int domains) : domains_(domains), barrier_(domains) {}

void
TickPool::start()
{
    const int cpus = availableCpus();
    if (domains_ > cpus) {
        warn("tick pool: ", domains_, " domains (noc.threads) on ", cpus,
             " CPUs; workers that share a CPU stall every cycle's "
             "barrier and can run slower than ", cpus, " threads");
    }
    workers_.reserve(static_cast<std::size_t>(domains_ - 1));
    for (int d = 1; d < domains_; ++d)
        workers_.emplace_back(&TickPool::workerLoop, this, d);
}

TickPool::~TickPool()
{
    {
        std::lock_guard<std::mutex> lk(sleepMutex_);
        stop_.store(true, std::memory_order_seq_cst);
        sleepCv_.notify_all();
    }
    for (std::thread &t : workers_)
        t.join();
}

void
TickPool::publish()
{
    // seq_cst pairs with the sleeper's registration in awaitRun(): either
    // the sleeper's final epoch check sees this bump, or this load sees
    // the sleeper and wakes it under the mutex. No sleeper, no lock.
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
        std::lock_guard<std::mutex> lk(sleepMutex_);
        sleepCv_.notify_all();
    }
}

bool
TickPool::awaitRun(std::uint64_t seen)
{
    int spins = 0;
    unsigned polls = 0;
    // Host time only decides when an idle worker blocks; it never
    // reaches simulated state. drlint-allow(wall-clock)
    std::chrono::steady_clock::time_point idleSince;
    while (epoch_.load(std::memory_order_acquire) == seen) {
        if (stop_.load(std::memory_order_acquire))
            return false;
        cpuRelax(spins);
        // Read the clock only once spinning has saturated into yields,
        // and then only every 64th poll.
        if (spins < 1024 || ++polls % 64 != 0)
            continue;
        // drlint-allow(wall-clock): sleep decision only, as above
        const auto now = std::chrono::steady_clock::now();
        if (polls == 64) {
            idleSince = now;
        } else if (now - idleSince >= kSleepAfter) {
            std::unique_lock<std::mutex> lk(sleepMutex_);
            sleepers_.fetch_add(1, std::memory_order_seq_cst);
            sleepCv_.wait(lk, [&] {
                return epoch_.load(std::memory_order_seq_cst) != seen ||
                       stop_.load(std::memory_order_seq_cst);
            });
            sleepers_.fetch_sub(1, std::memory_order_relaxed);
            polls = 0;
        }
    }
    return true;
}

void
TickPool::workerLoop(int domain)
{
    // Lockstep: run() cannot publish again until every worker has passed
    // the barrier, so the epoch advances by exactly one per job.
    for (std::uint64_t seen = 0; awaitRun(seen); ++seen) {
        job_(ctx_, domain);
        barrier_.arriveAndWait();
    }
}

} // namespace dr

#ifndef DR_NOC_PARALLEL_HPP
#define DR_NOC_PARALLEL_HPP

/**
 * @file
 * Threading primitives for the deterministic parallel tick engine
 * (DESIGN.md §11): the one worker pool every parallel phase runs on, and
 * the barrier that ends each of its runs. The barrier is a counter +
 * generation pair: every arrival is one atomic RMW, the last arrival
 * resets the counter and bumps the generation, releasing the spinners.
 * Waiters spin with a CPU-relax hint and escalate to yield; there is no
 * futex sleep because a barrier wait spans at most one domain's worth of
 * tick work. The release/acquire pair on the generation (and the RMW
 * chain on the arrival counter) makes every write before any party's
 * arrival visible to every party after the barrier — which is the whole
 * correctness contract between the compute run and the serial merge.
 *
 * Ownership (DESIGN.md §12): the atomics, mutex and threads are their
 * own synchronization and carry no phase annotation; the plain members
 * are written only by the serial (main) thread between runs, hence
 * DR_SERIAL_ONLY.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/ownership.hpp"

namespace dr
{

/**
 * The CPU count from its sources, in order of trust: the process's
 * affinity mask (`affinityCpus`, <= 0 when it could not be read), else
 * std::thread::hardware_concurrency() (0 when unknown), else 1.
 */
int cpuCount(int affinityCpus, unsigned hardwareThreads);

/** CPUs this thread may run on: cpuCount() of the live sources. */
int availableCpus();

/**
 * One bounded-spin step: CPU-relax while `spins` climbs toward the
 * saturation point, then yield on every further call. The counter
 * saturates (no overflow), so callers can also use `spins >= 1024` as
 * an "escalate further" signal.
 */
inline void
cpuRelax(int &spins)
{
    if (spins < 1024) {
        ++spins;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield" ::: "memory");
#endif
    } else {
        std::this_thread::yield();
    }
}

/** Reusable generation barrier for a fixed set of parties. */
class SpinBarrier
{
  public:
    explicit SpinBarrier(int parties = 1) : parties_(parties) {}

    void
    arriveAndWait()
    {
        // Reading the generation before arriving is race-free: no new
        // round can complete until this party arrives too.
        const std::uint64_t gen = gen_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            parties_) {
            // Reset before the release bump so re-arrivals of the next
            // round (which synchronize on the bump) see a zero counter.
            arrived_.store(0, std::memory_order_relaxed);
            gen_.fetch_add(1, std::memory_order_release);
        } else {
            int spins = 0;
            while (gen_.load(std::memory_order_acquire) == gen)
                cpuRelax(spins);
        }
    }

  private:
    int parties_ DR_SERIAL_ONLY;
    std::atomic<int> arrived_{0};
    std::atomic<std::uint64_t> gen_{0};
};

/**
 * The tick engine's worker pool: size() − 1 threads, started by the
 * first run(), plus the caller — one per spatial domain. Starting more
 * domains than availableCpus() warns once: the spinning workers then
 * share CPUs and every barrier waits on a descheduled one. run(f) calls
 * f(d) exactly once for every domain d, f(0) on the calling thread, and
 * returns when all have finished, so a busy cycle's parallel work is
 * one run() costing one epoch bump and one barrier.
 *
 * Between runs the workers spin on the epoch: the next cycle's run is
 * microseconds away. Only after a long idle window (kSleepAfter, e.g.
 * between advance() calls) does a worker register as a sleeper and
 * block on the condition variable; run() takes the mutex only while a
 * sleeper is registered.
 */
class TickPool
{
  public:
    explicit TickPool(int domains);
    ~TickPool();

    TickPool(const TickPool &) = delete;
    TickPool &operator=(const TickPool &) = delete;

    /** Domains per run: the worker threads plus the caller. */
    int size() const { return domains_; }

    /** Workers currently blocked on the condition variable. */
    int
    sleeping() const
    {
        return sleepers_.load(std::memory_order_relaxed);
    }

    /** Call f(d) once for every domain d, f(0) on this thread. */
    template <typename F>
    void
    run(F &&f) DR_COMMIT_PHASE
    {
        if (domains_ == 1) {
            f(0);
            return;
        }
        if (workers_.empty())
            start();
        using Fn = const std::remove_reference_t<F>;
        job_ = [](const void *ctx, int d) { (*static_cast<Fn *>(ctx))(d); };
        ctx_ = &f;
        publish();
        f(0);
        barrier_.arriveAndWait();
    }

  private:
    friend struct NetworkTestAccess;

    using Job = void (*)(const void *, int);

    void start();
    void publish();
    void workerLoop(int domain);
    /** Spin (then sleep) until the epoch leaves `seen`; false on stop. */
    bool awaitRun(std::uint64_t seen);

    int domains_ DR_SERIAL_ONLY;
    //! the current run's job; written before the epoch bump publishes it
    Job job_ DR_SERIAL_ONLY = nullptr;
    const void *ctx_ DR_SERIAL_ONLY = nullptr;
    SpinBarrier barrier_;
    std::atomic<std::uint64_t> epoch_{0};  //!< runs published so far
    std::atomic<int> sleepers_{0};
    std::atomic<bool> stop_{false};
    std::mutex sleepMutex_;
    std::condition_variable sleepCv_;
    std::vector<std::thread> workers_;
};

} // namespace dr

#endif // DR_NOC_PARALLEL_HPP

/**
 * @file
 * Fixed-size worker pool for deterministic parallel execution.
 *
 * The execution engine under the parallel Monte Carlo AOR simulator
 * and the charging-event sweep runner. Design rules:
 *
 *  - Parallelism must never change results. The pool provides raw
 *    fan-out only; callers shard their work deterministically (fixed
 *    shard counts, per-shard seed substreams, ordered reduction) so
 *    that output is bit-identical for any worker count.
 *  - Exceptions propagate. A task that throws delivers its exception
 *    to whoever waits on it: submit() through the returned future,
 *    parallelFor() by rethrowing the first captured exception after
 *    the loop drains.
 *  - The pool is reusable: submit/parallelFor may be called any
 *    number of times, including after a task has thrown.
 *
 * parallelFor() is an affine fork-join (DESIGN.md §9). The calling
 * thread is lane 0 and worker w is lane w + 1; the index range is cut
 * into one contiguous home block per lane, so repeated calls over the
 * same range run each index on the same thread. A lane drains its own
 * block from the front, then steals from the other blocks' backs in a
 * fixed rotation. A block reaches its worker through a per-worker fork
 * slot that the worker checks before the submit() queue; the caller
 * takes back any slot no worker has claimed once the range is
 * drained, so the call completes even when every worker is busy. It
 * still must not be called from inside a task of the same pool that
 * the outer call waits on through submit() futures (the usual nested
 * fork-join deadlock).
 */

#ifndef DCBATT_UTIL_THREAD_POOL_H_
#define DCBATT_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
// The pool is the one sanctioned owner of raw threads in the tree;
// everything else fans out through it so worker count stays a
// non-semantic knob (DESIGN.md §9).
#include <thread>  // detlint: allow(raw-thread) -- ThreadPool is the sanctioned std::thread owner
#include <type_traits>
#include <vector>

#include "util/annotations.h"

namespace dcbatt::util {

/** Fixed worker pool with a FIFO work queue. */
class ThreadPool
{
  public:
    /** Spawns @p threads workers (0 is clamped to 1). */
    explicit ThreadPool(unsigned threads = hardwareThreads());
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** std::thread::hardware_concurrency(), clamped to >= 1. */
    static unsigned hardwareThreads();

    /**
     * Enqueue @p fn and return a future for its result. An exception
     * thrown by @p fn is delivered by the future's get(). The pool
     * destroys @p fn, and everything it captured, before the future
     * becomes ready.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        struct Task
        {
            std::optional<std::decay_t<F>> fn;
            std::promise<R> promise;
        };
        auto task = std::make_shared<Task>();
        task->fn.emplace(std::forward<F>(fn));
        std::future<R> future = task->promise.get_future();
        enqueue([task] {
            try {
                if constexpr (std::is_void_v<R>) {
                    (*task->fn)();
                    task->fn.reset();
                    task->promise.set_value();
                } else {
                    R result = (*task->fn)();
                    task->fn.reset();
                    task->promise.set_value(std::forward<R>(result));
                }
            } catch (...) {
                task->fn.reset();
                task->promise.set_exception(std::current_exception());
            }
        });
        return future;
    }

    /**
     * Run fn(0), ..., fn(n-1) across the workers plus the calling
     * thread, one home block per lane; returns once every index has
     * run (indices after a thrown exception may be skipped) and no
     * worker touches the call any more. Rethrows the first exception.
     * Iterations must be independent: they run in unspecified order
     * and concurrently, so determinism is the caller's job (write to
     * disjoint slots, reduce in index order afterwards). @p n must
     * fit in 32 bits.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

  private:
    /** One parallelFor call; lives on the caller's stack. */
    struct ForkJoin;

    void enqueue(std::function<void()> job);
    void workerLoop(size_t w);
    /** Run lane @p lane of @p call, recording its first exception. */
    void runLane(ForkJoin &call, size_t lane);

    Mutex mutex_;
    /** Worker w sleeps on wake_[w], so a fork wakes only its lanes. */
    std::unique_ptr<CondVar[]> wake_;
    /** Signalled when a claimed fork's last worker lane returns. */
    CondVar joined_;
    std::deque<std::function<void()>> queue_ DCBATT_GUARDED_BY(mutex_);
    /** Per worker: a posted parallelFor call it has not claimed yet. */
    std::vector<ForkJoin *> forks_ DCBATT_GUARDED_BY(mutex_);
    /** Per worker: asleep on wake_[w] and not yet signalled. */
    std::vector<uint8_t> asleep_ DCBATT_GUARDED_BY(mutex_);
    /** Written only by the constructor; joined by the destructor. */
    std::vector<std::thread> workers_;  // detlint: allow(raw-thread) -- the pool's own workers
    bool stopping_ DCBATT_GUARDED_BY(mutex_) = false;
};

} // namespace dcbatt::util

#endif // DCBATT_UTIL_THREAD_POOL_H_

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
 * parallelFor() has the calling thread participate in draining the
 * index range, so it completes even when every worker is busy; it
 * still must not be called from inside a task of the same pool that
 * the outer call waits on through submit() futures (the usual nested
 * fork-join deadlock).
 */

#ifndef DCBATT_UTIL_THREAD_POOL_H_
#define DCBATT_UTIL_THREAD_POOL_H_

#include <cstddef>
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
     * thread; returns once every index has run (indices after a
     * thrown exception may be skipped). Rethrows the first exception.
     * Iterations must be independent: they run in unspecified order
     * and concurrently, so determinism is the caller's job (write to
     * disjoint slots, reduce in index order afterwards).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

  private:
    void enqueue(std::function<void()> job);
    void workerLoop();

    Mutex mutex_;
    CondVar cv_;
    std::deque<std::function<void()>> queue_ DCBATT_GUARDED_BY(mutex_);
    /** Written only by the constructor; joined by the destructor. */
    std::vector<std::thread> workers_;  // detlint: allow(raw-thread) -- the pool's own workers
    bool stopping_ DCBATT_GUARDED_BY(mutex_) = false;
};

} // namespace dcbatt::util

#endif // DCBATT_UTIL_THREAD_POOL_H_

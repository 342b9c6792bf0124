#include "util/thread_pool.h"

#include <atomic>
#include <exception>

#include "util/check.h"

namespace dcbatt::util {

unsigned
ThreadPool::hardwareThreads()
{
    unsigned hc = std::thread::hardware_concurrency();  // detlint: allow(raw-thread) -- capacity probe inside the sanctioned pool
    return hc == 0 ? 1 : hc;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    cv_.notifyAll();
    for (std::thread &worker : workers_)  // detlint: allow(raw-thread) -- joining the pool's own workers
        worker.join();
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        MutexLock lock(mutex_);
        DCBATT_REQUIRE(!stopping_,
                       "submit on a ThreadPool being destroyed");
        queue_.push_back(std::move(job));
    }
    cv_.notifyOne();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> job;
        {
            MutexLock lock(mutex_);
            // Explicit wait loop (not the predicate overload) so the
            // guarded reads sit where -Wthread-safety can see the
            // lock held.
            while (!stopping_ && queue_.empty())
                cv_.wait(lock);
            if (queue_.empty())
                return;  // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        // submit() catches the task's exception into its future; a
        // bare job that throws would terminate, which is the right
        // default for the pool's own plumbing.
        job();
    }
}

namespace {

/** Shared state of one parallelFor call. */
struct ForState
{
    std::atomic<size_t> next{0};
    std::atomic<bool> abort{false};
    Mutex mutex;
    std::exception_ptr error DCBATT_GUARDED_BY(mutex);
};

void
drainRange(ForState &state, size_t n,
           const std::function<void(size_t)> &fn)
{
    while (!state.abort.load(std::memory_order_relaxed)) {
        size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        try {
            fn(i);
        } catch (...) {
            {
                MutexLock lock(state.mutex);
                if (!state.error)
                    state.error = std::current_exception();
            }
            state.abort.store(true, std::memory_order_relaxed);
            return;
        }
    }
}

} // namespace

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    auto state = std::make_shared<ForState>();
    // One helper per worker, capped by the range (the calling thread
    // drains too, so the loop completes even on a saturated pool and
    // the caller always takes at least one index).
    size_t helpers = std::min<size_t>(workers_.size(), n - 1);
    std::vector<std::future<void>> futures;
    futures.reserve(helpers);
    for (size_t h = 0; h < helpers; ++h) {
        futures.push_back(
            submit([state, n, &fn] { drainRange(*state, n, fn); }));
    }
    drainRange(*state, n, fn);
    for (std::future<void> &future : futures)
        future.get();
    // Every drainer has returned; the lock is uncontended and keeps
    // the guarded read visible to the thread-safety analysis.
    MutexLock lock(state->mutex);
    if (state->error)
        std::rethrow_exception(state->error);
}

} // namespace dcbatt::util

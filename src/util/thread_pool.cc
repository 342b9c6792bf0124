#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
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
    wake_ = std::make_unique<CondVar[]>(threads);
    {
        MutexLock lock(mutex_);
        forks_.assign(threads, nullptr);
        asleep_.assign(threads, 0);
    }
    workers_.reserve(threads);
    for (unsigned w = 0; w < threads; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    for (size_t w = 0; w < workers_.size(); ++w)
        wake_[w].notifyOne();
    for (std::thread &worker : workers_)  // detlint: allow(raw-thread) -- joining the pool's own workers
        worker.join();
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    size_t sleeper = workers_.size();
    {
        MutexLock lock(mutex_);
        DCBATT_REQUIRE(!stopping_,
                       "submit on a ThreadPool being destroyed");
        queue_.push_back(std::move(job));
        // Wake one sleeping worker; a busy one checks the queue before
        // it sleeps again.
        for (size_t w = 0; w < asleep_.size(); ++w) {
            if (asleep_[w]) {
                asleep_[w] = 0;
                sleeper = w;
                break;
            }
        }
    }
    if (sleeper < workers_.size())
        wake_[sleeper].notifyOne();
}

/**
 * One parallelFor call. Lane l owns indices [l*n/L, (l+1)*n/L) of
 * the L lanes; its block packs the unclaimed sub-range as front (low
 * 32 bits) and back (high 32 bits), so the owner and the thieves claim
 * from opposite ends with one compare-and-swap each.
 */
struct ThreadPool::ForkJoin
{
    struct alignas(64) Block
    {
        std::atomic<uint64_t> range{0};
        /** Lane's worker was asleep when posted: signal it. */
        bool wake = false;
    };

    ForkJoin(size_t n, size_t lanes_,
             const std::function<void(size_t)> &fn_)
        : lanes(lanes_), fn(&fn_),
          blocks(std::make_unique<Block[]>(lanes_))
    {
        for (size_t l = 0; l < lanes; ++l) {
            uint64_t lo = l * n / lanes;
            uint64_t hi = (l + 1) * n / lanes;
            blocks[l].range.store(lo | hi << 32,
                                  std::memory_order_relaxed);
        }
    }

    /** Claim one index of block @p b from its front or its back. */
    bool
    take(size_t b, bool front, size_t &index)
    {
        std::atomic<uint64_t> &range = blocks[b].range;
        uint64_t v = range.load(std::memory_order_relaxed);
        while (true) {
            auto lo = static_cast<uint32_t>(v);
            auto hi = static_cast<uint32_t>(v >> 32);
            if (lo >= hi)
                return false;
            uint64_t next = front ? v + 1 : v - (uint64_t{1} << 32);
            if (range.compare_exchange_weak(v, next,
                                            std::memory_order_relaxed)) {
                index = front ? lo : hi - 1;
                return true;
            }
        }
    }

    const size_t lanes;
    const std::function<void(size_t)> *fn;
    std::unique_ptr<Block[]> blocks;
    std::atomic<bool> abort{false};
    /** First exception; written under the pool's mutex_. */
    std::exception_ptr error;
    /**
     * Workers that claimed this call and have not returned, under the
     * pool's mutex_. A worker's decrement is its last touch of the
     * call: the caller may return as soon as it reads zero.
     */
    size_t active = 0;
};

void
ThreadPool::workerLoop(size_t w)
{
    while (true) {
        ForkJoin *fork = nullptr;
        std::function<void()> job;
        {
            MutexLock lock(mutex_);
            // Explicit wait loop (not the predicate overload) so the
            // guarded reads sit where -Wthread-safety can see the
            // lock held.
            while (!stopping_ && forks_[w] == nullptr && queue_.empty()) {
                asleep_[w] = 1;
                wake_[w].wait(lock);
            }
            asleep_[w] = 0;
            if (forks_[w] != nullptr) {
                fork = forks_[w];
                forks_[w] = nullptr;
                ++fork->active;
            } else if (!queue_.empty()) {
                job = std::move(queue_.front());
                queue_.pop_front();
            } else {
                return;  // stopping_ and drained
            }
        }
        if (fork != nullptr) {
            runLane(*fork, w + 1);
            bool last = false;
            {
                MutexLock lock(mutex_);
                last = --fork->active == 0;
            }
            // joined_ belongs to the pool, so signalling it after the
            // caller may have returned is safe.
            if (last)
                joined_.notifyAll();
            continue;
        }
        // submit() catches the task's exception into its future; a
        // bare job that throws would terminate, which is the right
        // default for the pool's own plumbing.
        job();
    }
}

void
ThreadPool::runLane(ForkJoin &call, size_t lane)
{
    // Home block first, then the others in a fixed rotation.
    for (size_t r = 0; r < call.lanes; ++r) {
        const size_t b = (lane + r) % call.lanes;
        size_t i = 0;
        while (!call.abort.load(std::memory_order_relaxed)
               && call.take(b, r == 0, i)) {
            try {
                (*call.fn)(i);
            } catch (...) {
                call.abort.store(true, std::memory_order_relaxed);
                MutexLock lock(mutex_);
                if (!call.error)
                    call.error = std::current_exception();
                return;
            }
        }
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    DCBATT_REQUIRE(n <= UINT32_MAX, "parallelFor over %zu indices", n);
    const size_t lanes = std::min(workers_.size() + 1, n);
    if (lanes == 1) {
        fn(0);
        return;
    }
    ForkJoin call(n, lanes, fn);
    {
        // Post lane w + 1 to worker w. A slot still holding another
        // call's fork is left alone: that block gets stolen instead.
        MutexLock lock(mutex_);
        for (size_t w = 0; w + 1 < lanes; ++w) {
            if (forks_[w] != nullptr)
                continue;
            forks_[w] = &call;
            call.blocks[w + 1].wake = asleep_[w] != 0;
            asleep_[w] = 0;
        }
    }
    // Signal outside the lock, so a woken worker does not block on it.
    for (size_t w = 0; w + 1 < lanes; ++w) {
        if (call.blocks[w + 1].wake)
            wake_[w].notifyOne();
    }
    runLane(call, 0);
    // Every index is claimed now. Take back the slots no worker
    // claimed and wait out the lanes that did.
    MutexLock lock(mutex_);
    for (size_t w = 0; w + 1 < lanes; ++w) {
        if (forks_[w] == &call)
            forks_[w] = nullptr;
    }
    while (call.active > 0)
        joined_.wait(lock);
    if (call.error)
        std::rethrow_exception(call.error);
}

} // namespace dcbatt::util

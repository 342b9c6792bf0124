/**
 * @file
 * Tests for util::ThreadPool: submit/future plumbing, release of a
 * task's captures before its future is ready, exception propagation
 * through both submit() and parallelFor(), parallelFor index
 * coverage, reuse of the pool after a full drain, and the fork-join's
 * contracts: home blocks stay on their lanes, a call completes on a
 * saturated pool, and back-to-back calls never touch a finished call.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/thread_pool.h"

namespace dcbatt::util {
namespace {

TEST(ThreadPool, SubmitReturnsFutureValue)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.size(), 2u);
    auto future = pool.submit([] { return 41 + 1; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitReleasesCapturesBeforeFutureIsReady)
{
    ThreadPool pool(2);
    for (int round = 0; round < 50; ++round) {
        auto held = std::make_shared<int>(round);
        std::weak_ptr<int> watch = held;
        auto future =
            pool.submit([held = std::move(held)] { return *held; });
        EXPECT_EQ(future.get(), round);
        EXPECT_TRUE(watch.expired()) << "round " << round;
    }
}

TEST(ThreadPool, SubmitReleasesCapturesWhenTaskThrows)
{
    ThreadPool pool(2);
    auto held = std::make_shared<int>(0);
    std::weak_ptr<int> watch = held;
    auto future = pool.submit([held = std::move(held)]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(future.get(), std::runtime_error);
    EXPECT_TRUE(watch.expired());
}

TEST(ThreadPool, ParallelForVisitsEachIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&hits, kN](size_t i) {
        ASSERT_LT(i, kN);
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForZeroAndOneElement)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(0, [&calls](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    // n == 1 runs entirely on the calling thread: no data race on
    // the unsynchronized counter.
    pool.parallelFor(1, [&calls](size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> visited{0};
    EXPECT_THROW(pool.parallelFor(256,
                                  [&visited](size_t i) {
                                      visited.fetch_add(1);
                                      if (i == 17)
                                          throw std::logic_error(
                                              "index 17");
                                  }),
                 std::logic_error);
    // Abort is best-effort, but at least the throwing index ran.
    EXPECT_GE(visited.load(), 1);
}

TEST(ThreadPool, ReusableAfterDrain)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<size_t> sum{0};
        pool.parallelFor(100, [&sum](size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 100u * 99u / 2u) << "round " << round;
        auto future = pool.submit([round] { return round * 2; });
        EXPECT_EQ(future.get(), round * 2);
    }
}

TEST(ThreadPool, ZeroRequestedThreadsStillWorks)
{
    // A zero-thread request is clamped to one worker.
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<int> count{0};
    pool.parallelFor(10, [&count](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
}

/**
 * Spin until @p count reaches @p target or ten seconds pass; returns
 * whether it got there (a broken pool fails the test, not the suite's
 * timeout).
 */
bool
awaitCount(const std::atomic<size_t> &count, size_t target)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (count.load() < target) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(ThreadPool, ParallelForRunsEachHomeBlockOnItsLane)
{
    // n == lanes and every body waits until all lanes hold an index:
    // no lane can steal before the others claim, so index l runs on
    // lane l — the caller for 0, the same worker for the rest, call
    // after call.
    ThreadPool pool(3);
    const size_t lanes = pool.size() + 1;
    std::vector<std::thread::id> home(lanes);
    for (int round = 0; round < 20; ++round) {
        std::atomic<size_t> arrived{0};
        std::vector<std::thread::id> ran(lanes);
        std::atomic<bool> stuck{false};
        pool.parallelFor(lanes, [&](size_t i) {
            arrived.fetch_add(1);
            if (!awaitCount(arrived, lanes))
                stuck.store(true);
            ran[i] = std::this_thread::get_id();
        });
        ASSERT_FALSE(stuck.load()) << "round " << round;
        EXPECT_EQ(ran[0], std::this_thread::get_id());
        if (round == 0)
            home = ran;
        for (size_t i = 0; i < lanes; ++i)
            EXPECT_EQ(ran[i], home[i]) << "round " << round << " index " << i;
    }
}

TEST(ThreadPool, ParallelForCompletesOnSaturatedPool)
{
    // Every worker is stuck in a submit() task that is released only
    // after parallelFor returns: the fork slots are never claimed, so
    // the caller must drain the range alone and take them back.
    ThreadPool pool(3);
    std::atomic<size_t> blocked{0};
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::vector<std::future<void>> tasks;
    for (unsigned w = 0; w < pool.size(); ++w) {
        tasks.push_back(pool.submit([&blocked, gate] {
            blocked.fetch_add(1);
            gate.wait();
        }));
    }
    ASSERT_TRUE(awaitCount(blocked, pool.size()));
    constexpr size_t kN = 48;
    std::vector<int> hits(kN, 0);
    // Call from a helper thread, so a pool that waits for its busy
    // workers fails here instead of hanging the suite: releasing the
    // gate below lets such a call finish.
    std::future<void> call = std::async(std::launch::async, [&] {
        pool.parallelFor(kN, [&hits](size_t i) { ++hits[i]; });
    });
    const bool completed = call.wait_for(std::chrono::seconds(10))
        == std::future_status::ready;
    release.set_value();
    call.get();
    for (std::future<void> &task : tasks)
        task.get();
    EXPECT_TRUE(completed)
        << "parallelFor waited on workers stuck in submit() tasks";
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
    // The taken-back slots leave the pool usable.
    std::atomic<size_t> sum{0};
    pool.parallelFor(kN, [&sum](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPool, BackToBackParallelForStress)
{
    // Each call's state lives on the caller's stack; a worker that
    // touched it after its last index would race the next call (TSan)
    // or read freed memory (ASan). Plain ints: a double visit is a
    // data race as well as a wrong count. Each body spins a little so
    // the workers wake in time to claim, steal and finish lanes.
    ThreadPool pool(3);
    const size_t lanes = pool.size() + 1;
    const size_t sizes[] = {1, lanes - 1, lanes, 48};
    std::vector<int> hits(48, 0);
    for (int call = 0; call < 12000; ++call) {
        const size_t n = sizes[call % 4];
        std::fill(hits.begin(), hits.end(), 0);
        pool.parallelFor(n, [&hits](size_t i) {
            volatile unsigned spin = 0;
            for (unsigned k = 0; k < 4000; ++k)
                spin = spin + k;
            ++hits[i];
        });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i], 1) << "call " << call << " index " << i;
    }
}

TEST(RngSubstream, IndependentOfParentDrawOrder)
{
    Rng a(1234);
    Rng b(1234);
    // Drain some draws from one parent only; substreams must still
    // match because they are keyed on (seed, index), not state.
    for (int i = 0; i < 100; ++i)
        b.uniform(0.0, 1.0);
    Rng sub_a = a.substream(7);
    Rng sub_b = b.substream(7);
    for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(sub_a.uniform(0.0, 1.0),
                         sub_b.uniform(0.0, 1.0));
}

TEST(RngSubstream, DistinctIndicesDiverge)
{
    Rng rng(99);
    Rng s0 = rng.substream(0);
    Rng s1 = rng.substream(1);
    int equal = 0;
    for (int i = 0; i < 16; ++i) {
        if (s0.uniform(0.0, 1.0) == s1.uniform(0.0, 1.0))
            ++equal;
    }
    EXPECT_LT(equal, 16);
}

} // namespace
} // namespace dcbatt::util

/**
 * @file
 * Tests for util::ThreadPool: submit/future plumbing, release of a
 * task's captures before its future is ready, exception propagation
 * through both submit() and parallelFor(), parallelFor index
 * coverage, and reuse of the pool after a full drain.
 */

#include <atomic>
#include <memory>
#include <stdexcept>
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

/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"

namespace dcbatt::sim {
namespace {

TEST(SimTime, TickConversions)
{
    EXPECT_EQ(toTicks(util::Seconds(1.0)), 1'000'000);
    EXPECT_EQ(toTicks(util::Seconds(0.0000005)), 1);  // rounds
    EXPECT_DOUBLE_EQ(toSeconds(3'000'000).value(), 3.0);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(10, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilLeavesLaterEvents)
{
    EventQueue q;
    int ran = 0;
    q.schedule(10, [&] { ++ran; });
    q.schedule(100, [&] { ++ran; });
    EXPECT_EQ(q.runUntil(50), 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(q.now(), 50);  // clock advances to the horizon
    EXPECT_EQ(q.pendingCount(), 1u);
    q.run();
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, ScheduleAfter)
{
    EventQueue q;
    Tick seen = -1;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelExecutedEventReturnsFalse)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(0));
    EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, EventsScheduledDuringRun)
{
    EventQueue q;
    std::vector<Tick> times;
    q.schedule(10, [&] {
        times.push_back(q.now());
        q.schedule(10, [&] { times.push_back(q.now()); });  // same tick
    });
    q.run();
    EXPECT_EQ(times, (std::vector<Tick>{10, 10}));
}

TEST(EventQueueDeathTest, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(50, [] {}), "in the past");
}

TEST(PeriodicTask, FiresAtPeriod)
{
    EventQueue q;
    std::vector<Tick> fires;
    PeriodicTask task(q, 10, [&](Tick now) { fires.push_back(now); });
    task.start();
    q.runUntil(35);
    EXPECT_EQ(fires, (std::vector<Tick>{10, 20, 30}));
    EXPECT_TRUE(task.running());
}

TEST(PeriodicTask, CustomPhase)
{
    EventQueue q;
    std::vector<Tick> fires;
    PeriodicTask task(q, 10, [&](Tick now) { fires.push_back(now); });
    task.start(0);
    q.runUntil(25);
    EXPECT_EQ(fires, (std::vector<Tick>{0, 10, 20}));
}

TEST(PeriodicTask, StopHalts)
{
    EventQueue q;
    int count = 0;
    PeriodicTask task(q, 10, [&](Tick) { ++count; });
    task.start();
    q.runUntil(25);
    task.stop();
    EXPECT_FALSE(task.running());
    q.runUntil(100);
    EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, StopFromCallback)
{
    EventQueue q;
    int count = 0;
    PeriodicTask task(q, 10, [&](Tick) {
        if (++count == 2)
            task.stop();
    });
    task.start();
    q.runUntil(1000);
    EXPECT_EQ(count, 2);
    EXPECT_TRUE(q.empty());
}

TEST(PeriodicTask, DestructorCancels)
{
    EventQueue q;
    int count = 0;
    {
        PeriodicTask task(q, 10, [&](Tick) { ++count; });
        task.start();
        q.runUntil(15);
    }
    q.runUntil(100);
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.empty());
}

TEST(PeriodicTaskDeathTest, RejectsNonpositivePeriod)
{
    EventQueue q;
    EXPECT_DEATH(PeriodicTask(q, 0, [](Tick) {}), "positive");
}

// ---------------------------------------------------------------------
// Heap-queue coverage: ordering, same-tick bursts, far-future events
// and the cancellation leak gate.
// ---------------------------------------------------------------------

/**
 * The queue has one backend. The suite keeps its parameterized form,
 * with that one instance, so its test names stay stable: the instance
 * keeps the name it had when the pending set was a calendar queue.
 */
enum class Backend
{
    Heap,
};

class EventQueueBackendTest : public ::testing::TestWithParam<Backend>
{
};

INSTANTIATE_TEST_SUITE_P(Backends, EventQueueBackendTest,
                         ::testing::Values(Backend::Heap),
                         [](const auto &) { return "Calendar"; });

TEST_P(EventQueueBackendTest, OrderAndFifoTieBreak)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(2); });  // FIFO at same tick
    q.schedule(40, [&] { order.push_back(4); });
    EXPECT_EQ(q.run(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(q.now(), 40);
}

TEST_P(EventQueueBackendTest, MixedScaleGapsAndGrowth)
{
    // Dense bursts, sparse multi-second jumps, and a population far
    // past the few events an MSB usually has pending.
    EventQueue q;
    std::vector<Tick> fired;
    for (int burst = 0; burst < 8; ++burst) {
        Tick base = static_cast<Tick>(burst) * 5'000'000;
        for (int i = 0; i < 200; ++i)
            q.schedule(base + i, [&q, &fired] {
                fired.push_back(q.now());
            });
    }
    EXPECT_EQ(q.pendingCount(), 1600u);
    EXPECT_EQ(q.run(), 1600u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(fired.size(), 1600u);
    EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueBackendTest, SparseFarFutureEvents)
{
    // A one-tick delay next to events tens of seconds out: order must
    // not depend on how the gaps are spread.
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(1, [&] { fired.push_back(q.now()); });
    q.schedule(10'000'000, [&] { fired.push_back(q.now()); });
    q.schedule(50'000'000, [&] { fired.push_back(q.now()); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(fired,
              (std::vector<Tick>{1, 10'000'000, 50'000'000}));
}

TEST_P(EventQueueBackendTest, CancellationResidueIsCompacted)
{
    EventQueue q;
    std::vector<EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i)
        ids.push_back(q.schedule(1000 + i, [] {}));
    EXPECT_EQ(q.internalEntryCount(), 1000u);
    for (int i = 0; i < 999; ++i) {
        EXPECT_TRUE(q.cancel(ids[static_cast<size_t>(i)]));
        // Leak gate: a cancelled entry leaves no residue behind.
        EXPECT_LE(q.internalEntryCount(),
                  2 * q.pendingCount() + 16);
    }
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_LE(q.internalEntryCount(), 16u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.internalEntryCount(), 0u);
}

TEST_P(EventQueueBackendTest, PeriodicRestartChurnStaysBounded)
{
    // Each start() cancels the previous pending event; an entry left
    // behind by cancel() would leak one per restart.
    EventQueue q;
    PeriodicTask task(q, 10, [](Tick) {});
    for (int i = 0; i < 10'000; ++i)
        task.start();
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_LE(q.internalEntryCount(), 16u);
    task.stop();
}

// ---------------------------------------------------------------------
// Differential fuzz: the heap queue must execute the exact same event
// sequence (ticks, labels, clock) and answer every cancel() the same
// way as an independent reference under interleaved schedule /
// scheduleAfter / cancel / runUntil traffic, including callbacks that
// schedule more work or cancel other events, and same-tick actuation
// bursts.
// ---------------------------------------------------------------------

/**
 * The reference: a std::map keyed by (when, seq) is the pending set,
 * so the next event is begin() and a cancel is an erase. It shares no
 * storage, ordering or id bookkeeping with EventQueue.
 */
class OrderedMapQueue
{
  public:
    Tick now() const { return now_; }
    size_t pendingCount() const { return pending_.size(); }

    EventId
    schedule(Tick when, EventQueue::Callback callback)
    {
        EventId id = nextId_++;
        Key key{when, nextSeq_++};
        pending_.emplace(key, Pending{id, std::move(callback)});
        keyOf_.emplace(id, key);
        return id;
    }

    EventId
    scheduleAfter(Tick delay, EventQueue::Callback callback)
    {
        return schedule(now_ + delay, std::move(callback));
    }

    bool
    cancel(EventId id)
    {
        auto it = keyOf_.find(id);
        if (it == keyOf_.end())
            return false;
        pending_.erase(it->second);
        keyOf_.erase(it);
        return true;
    }

    size_t
    runUntil(Tick until)
    {
        size_t executed = execute(until);
        now_ = std::max(now_, until);
        return executed;
    }

    size_t run() { return execute(std::numeric_limits<Tick>::max()); }

  private:
    using Key = std::pair<Tick, uint64_t>;
    struct Pending
    {
        EventId id;
        EventQueue::Callback callback;
    };

    size_t
    execute(Tick until)
    {
        size_t executed = 0;
        while (!pending_.empty()
               && pending_.begin()->first.first <= until) {
            auto node = pending_.extract(pending_.begin());
            keyOf_.erase(node.mapped().id);
            now_ = node.key().first;
            node.mapped().callback();
            ++executed;
        }
        return executed;
    }

    std::map<Key, Pending> pending_;
    std::map<EventId, Key> keyOf_;
    Tick now_ = 0;
    uint64_t nextSeq_ = 0;
    EventId nextId_ = 1;
};

struct FuzzTrace
{
    std::vector<std::pair<Tick, int>> fired;
    std::vector<bool> cancels;  // every cancel() result, in call order
    Tick finalNow = 0;
    size_t executed = 0;
    size_t leftPending = 0;
};

template <typename Queue>
FuzzTrace
runFuzz(uint64_t seed)
{
    Queue q;
    FuzzTrace trace;
    uint64_t state = seed;
    auto rnd = [&state](uint64_t bound) {
        state = state * 6364136223846793005ULL
            + 1442695040888963407ULL;
        return (state >> 33) % bound;
    };
    int next_label = 0;
    // Ids the ops and bursts scheduled, whether or not they have run;
    // both queues number events alike, so a pick cancels the same
    // event.
    std::vector<EventId> outstanding;
    auto cancel_pick = [&](size_t pick) {
        trace.cancels.push_back(q.cancel(outstanding[pick]));
        outstanding[pick] = outstanding.back();
        outstanding.pop_back();
    };
    std::function<EventQueue::Callback(int)> make_cb =
        [&](int label) -> EventQueue::Callback {
        return [&, label] {
            trace.fired.emplace_back(q.now(), label);
            // A slice of callbacks schedules follow-up work, and
            // another slice cancels an outstanding event (which may
            // be pending at this very tick), each a pure function of
            // the label so both queues see identical traffic.
            if (label % 5 == 0 && next_label < 30000)
                q.scheduleAfter((label % 47) + 1,
                                make_cb(next_label++));
            if (label % 7 == 3 && !outstanding.empty())
                cancel_pick(static_cast<size_t>(label)
                            % outstanding.size());
        };
    };
    for (int op = 0; op < 2500; ++op) {
        switch (rnd(6)) {
          case 0:
            outstanding.push_back(q.schedule(
                q.now() + static_cast<Tick>(rnd(1000)),
                make_cb(next_label++)));
            break;
          case 1:
          case 2:
            outstanding.push_back(
                q.scheduleAfter(static_cast<Tick>(rnd(5000)),
                                make_cb(next_label++)));
            break;
          case 3:
            if (!outstanding.empty())
                cancel_pick(rnd(outstanding.size()));
            break;
          case 4:
            trace.executed +=
                q.runUntil(q.now() + static_cast<Tick>(rnd(3000)));
            break;
          case 5:
            // Now and then an actuation burst: one command per rack
            // of a 300-rack MSB, all landing on the same tick.
            if (rnd(8) == 0) {
                Tick at = q.now() + static_cast<Tick>(rnd(5000));
                for (int i = 0; i < 300; ++i)
                    outstanding.push_back(
                        q.schedule(at, make_cb(next_label++)));
            }
            break;
        }
        // The queue's internal-size invariant must hold mid-churn
        // too.
        if constexpr (std::is_same_v<Queue, EventQueue>) {
            EXPECT_LE(q.internalEntryCount(),
                      2 * q.pendingCount() + 16);
        }
    }
    trace.leftPending = q.pendingCount();
    trace.executed += q.run();
    trace.finalNow = q.now();
    return trace;
}

TEST(EventQueueDifferential, CalendarMatchesOrderedMapReference)
{
    for (uint64_t seed : {1ULL, 42ULL, 0xfeedULL, 987654321ULL}) {
        FuzzTrace heap = runFuzz<EventQueue>(seed);
        FuzzTrace reference = runFuzz<OrderedMapQueue>(seed);
        EXPECT_EQ(heap.fired, reference.fired) << "seed " << seed;
        EXPECT_EQ(heap.cancels, reference.cancels) << "seed " << seed;
        EXPECT_EQ(heap.finalNow, reference.finalNow)
            << "seed " << seed;
        EXPECT_EQ(heap.executed, reference.executed)
            << "seed " << seed;
        EXPECT_EQ(heap.leftPending, reference.leftPending)
            << "seed " << seed;
        EXPECT_FALSE(heap.fired.empty()) << "fuzz did no work";
        // Both outcomes of cancel() must be exercised: pending events
        // and ones that already ran or were already cancelled.
        EXPECT_NE(std::count(heap.cancels.begin(), heap.cancels.end(),
                             true),
                  0)
            << "seed " << seed;
        EXPECT_NE(std::count(heap.cancels.begin(), heap.cancels.end(),
                             false),
                  0)
            << "seed " << seed;
    }
}

} // namespace
} // namespace dcbatt::sim

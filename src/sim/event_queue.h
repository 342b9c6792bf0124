/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single-threaded event queue in the gem5 tradition: events are
 * (tick, callback) pairs; ties break in scheduling order so runs are
 * deterministic. Events can be cancelled through the handle returned
 * at scheduling time. Periodic activity (controller polling, physics
 * integration steps) is built on top via PeriodicTask.
 *
 * The pending set is one binary min-heap (DESIGN.md §14) sized to the
 * traffic an MSB schedules: a 3 s control tick, a 1 s physics step,
 * and actuation commands landing a lag after they are issued. A
 * dequeue sees three to five pending events on average, and the only
 * large sets are actuation bursts of one command per rack. The heap
 * holds small (when, id, slot) keys; callbacks wait in a slot vector,
 * so sifting never moves a std::function. Ids rise with scheduling
 * order, so (when, id) order is the FIFO tie-break and events run in
 * exactly that order, which a randomized differential fuzz test pins
 * against an independent ordered-map queue in the test suite.
 *
 * cancel() removes the event at once: a linear search finds its key,
 * the last key takes its place and the heap is rebuilt. Cancels come
 * from PeriodicTask teardown, a handful per run, so that costs less
 * than any per-event bookkeeping would, and storage always equals the
 * pending set.
 */

#ifndef DCBATT_SIM_EVENT_QUEUE_H_
#define DCBATT_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/sim_time.h"

namespace dcbatt::sim {

/** Opaque handle identifying a scheduled event (for cancellation). */
using EventId = uint64_t;

/** Single-threaded deterministic event queue. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;

    /** Current simulation time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick.
     * Scheduling in the past is a programming error (panics).
     */
    EventId schedule(Tick when, Callback callback);

    /** Schedule a callback @p delay ticks from now. */
    EventId scheduleAfter(Tick delay, Callback callback);

    /**
     * Cancel a scheduled event. Returns true if the event was pending;
     * false if it already ran, was already cancelled, or never existed.
     */
    bool cancel(EventId id);

    /** Whether any events remain pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending (non-cancelled) events. */
    size_t pendingCount() const { return heap_.size(); }

    /**
     * Entries physically stored. Cancellation removes an entry at
     * once, so this always equals pendingCount(); tests assert the
     * bound (the cancellation leak gate). It is never needed for
     * scheduling decisions.
     */
    size_t internalEntryCount() const { return heap_.size(); }

    /**
     * Run all events scheduled at or before @p until, then advance the
     * clock to @p until (the horizon has been simulated even if no
     * event landed exactly on it).
     * @returns the number of events executed.
     */
    size_t runUntil(Tick until);

    /**
     * Run to quiescence; the clock stops at the last executed event.
     * @returns the number of events executed.
     */
    size_t run();

  private:
    /** Heap key; the callback waits in slots_[slot]. */
    struct Key
    {
        Tick when;
        EventId id;  // rises with scheduling order: the FIFO tie-break
        size_t slot;

        /** Strict (when, id) event order; the heap is a min-heap. */
        bool
        operator>(const Key &other) const
        {
            if (when != other.when)
                return when > other.when;
            return id > other.id;
        }
    };

    size_t execute(Tick until);

    std::vector<Key> heap_;
    std::vector<Callback> slots_;  // callbacks, by Key::slot
    std::vector<size_t> freeSlots_;

    Tick now_ = 0;
    EventId nextId_ = 1;
};

/**
 * Fixed-interval repeating task on an EventQueue. The task starts when
 * start() is called and re-arms itself until stop() or queue teardown.
 * The callback receives the current tick.
 */
class PeriodicTask
{
  public:
    using Callback = std::function<void(Tick)>;

    PeriodicTask(EventQueue &queue, Tick period, Callback callback);
    ~PeriodicTask();

    PeriodicTask(const PeriodicTask &) = delete;
    PeriodicTask &operator=(const PeriodicTask &) = delete;

    /** Arm the task; first firing at now + phase (default: one period). */
    void start(Tick phase = -1);
    /** Disarm the task; safe to call when not running. */
    void stop();

    bool running() const { return armed_; }
    Tick period() const { return period_; }

  private:
    void fire();

    EventQueue &queue_;
    Tick period_;
    Callback callback_;
    EventId pending_ = 0;
    bool armed_ = false;
};

} // namespace dcbatt::sim

#endif // DCBATT_SIM_EVENT_QUEUE_H_

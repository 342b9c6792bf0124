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
 * The pending set is a calendar queue (DESIGN.md §14): a power-of-two
 * ring of buckets, each one bucket-width of ticks wide, with the width
 * adapted to the observed inter-event gap at resize points. schedule()
 * is an O(1) append into the target bucket; dequeue scans forward from
 * now's bucket one window at a time and falls back to a direct
 * whole-table search after a fruitless revolution. Amortized O(1) per
 * event for the simulator's workloads (a handful of periodic streams).
 * The layout changes where entries are stored, never which entry is
 * next: events run in strict (when, seq) order, which a randomized
 * differential fuzz test pins against an independent ordered-map
 * queue in the test suite.
 *
 * Cancellation is lazy: cancel() clears the event's pending flag and
 * the stored entry becomes residue that is dropped when it surfaces.
 * So that long-lived PeriodicTask churn stays memory-bounded, the
 * queue compacts its storage whenever cancelled residue outnumbers
 * live entries (over half the stored entries are dead).
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

    EventQueue();

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
    bool empty() const { return pendingCount_ == 0; }

    /** Number of pending (non-cancelled) events. */
    size_t pendingCount() const { return pendingCount_; }

    /**
     * Entries physically stored, including cancelled residue awaiting
     * compaction. Tests assert internalEntryCount() stays within a
     * small factor of pendingCount() (the lazy-cancellation leak
     * gate); it is never needed for scheduling decisions.
     */
    size_t internalEntryCount() const { return storedCount_; }

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
    struct Entry
    {
        Tick when;
        uint64_t seq;  // FIFO tie-break for same-tick events
        EventId id;
        Callback callback;

        /** Strict (when, seq) event order. */
        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    size_t execute(Tick until);

    /** Locate the next live entry; false when none. Does not pop. */
    bool findNext(size_t &bucket, size_t &slot);

    // --- id flag window (pending/cancelled state per event id) ------
    bool
    idPending(EventId id) const
    {
        return id >= idBase_ && id - idBase_ < idFlags_.size()
            && idFlags_[id - idBase_] != 0;
    }
    void
    clearId(EventId id)
    {
        idFlags_[id - idBase_] = 0;
    }
    void compactIdWindow();

    // --- storage maintenance ----------------------------------------
    void maybeCompact();
    void compactStorage();
    void resizeCalendar(size_t buckets);
    void placeEntry(Entry &&entry);

    /**
     * Bucket b stores entries whose (when >> widthShift_) ≡ b (mod
     * bucket count). Buckets are unsorted; the dequeue scan takes the
     * (when, seq) minimum within the bucket's current window.
     */
    std::vector<std::vector<Entry>> buckets_;
    size_t bucketMask_ = 0;
    int widthShift_ = 0;
    bool widthSeeded_ = false;

    /** Dequeue scan cursor (valid while cacheNow_ == now_). */
    bool scanCacheValid_ = false;
    Tick scanCacheNow_ = 0;
    size_t scanBucket_ = 0;
    Tick scanWindowEnd_ = 0;

    /**
     * Pending flags for ids in [idBase_, idBase_ + size): 1 while the
     * event is scheduled-but-not-executed. Compacted alongside the
     * entry storage so the window stays proportional to the pending
     * count, not the total ids ever issued.
     */
    std::vector<uint8_t> idFlags_;
    EventId idBase_ = 1;

    size_t pendingCount_ = 0;
    size_t storedCount_ = 0;      // live + cancelled residue
    size_t cancelledResidue_ = 0; // stored entries already cancelled

    Tick now_ = 0;
    uint64_t nextSeq_ = 0;
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

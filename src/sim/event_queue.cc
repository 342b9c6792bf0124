#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/check.h"

namespace dcbatt::sim {

namespace {

constexpr size_t kMinBuckets = 64;
constexpr int kMaxWidthShift = 40;
/** Below this population, compaction churn costs more than residue. */
constexpr size_t kCompactMinStored = 16;

/** Bucket width for an observed gap: widest power of two <= gap. */
int
widthShiftForGap(Tick gap)
{
    if (gap < 1)
        gap = 1;
    int shift =
        static_cast<int>(std::bit_width(static_cast<uint64_t>(gap)))
        - 1;
    return std::min(shift, kMaxWidthShift);
}

} // namespace

EventQueue::EventQueue()
    : buckets_(kMinBuckets), bucketMask_(kMinBuckets - 1)
{
}

void
EventQueue::placeEntry(Entry &&entry)
{
    size_t idx = (static_cast<uint64_t>(entry.when) >> widthShift_)
        & bucketMask_;
    buckets_[idx].push_back(std::move(entry));
}

EventId
EventQueue::schedule(Tick when, Callback callback)
{
    DCBATT_REQUIRE(when >= now_,
                   "tick %lld is in the past (now %lld)",
                   static_cast<long long>(when),
                   static_cast<long long>(now_));
    EventId id = nextId_++;
    idFlags_.push_back(1);
    ++pendingCount_;
    ++storedCount_;
    if (!widthSeeded_) {
        // Seed the bucket width from the very first delay; resizes
        // re-derive it from the observed population.
        widthShift_ = widthShiftForGap(when - now_);
        widthSeeded_ = true;
    }
    // An insert behind the scan cursor's window would be missed.
    if (scanCacheValid_
        && when < scanWindowEnd_ - (Tick(1) << widthShift_))
        scanCacheValid_ = false;
    // Emplaced, not routed through placeEntry: the extra Entry move
    // would drag the std::function's manager call with it.
    size_t idx =
        (static_cast<uint64_t>(when) >> widthShift_) & bucketMask_;
    buckets_[idx].emplace_back(when, nextSeq_++, id, std::move(callback));
    if (pendingCount_ > 2 * buckets_.size())
        resizeCalendar(buckets_.size() * 2);
    // Executed ids leave zero flags behind; trim the window when it
    // far outgrows the pending set.
    if (idFlags_.size() > 1024
        && idFlags_.size() > 8 * (pendingCount_ + 1))
        compactIdWindow();
    return id;
}

EventId
EventQueue::scheduleAfter(Tick delay, Callback callback)
{
    return schedule(now_ + delay, std::move(callback));
}

bool
EventQueue::cancel(EventId id)
{
    if (!idPending(id))
        return false;
    clearId(id);
    --pendingCount_;
    ++cancelledResidue_;
    maybeCompact();
    return true;
}

void
EventQueue::maybeCompact()
{
    // Lazy-cancellation leak gate: never let dead entries outnumber
    // live ones (beyond a trivial floor).
    if (storedCount_ >= kCompactMinStored
        && cancelledResidue_ > pendingCount_)
        compactStorage();
}

void
EventQueue::compactStorage()
{
    for (std::vector<Entry> &bucket : buckets_) {
        std::erase_if(bucket, [this](const Entry &entry) {
            return !idPending(entry.id);
        });
    }
    storedCount_ = pendingCount_;
    cancelledResidue_ = 0;
    scanCacheValid_ = false;
    compactIdWindow();
}

void
EventQueue::compactIdWindow()
{
    EventId min_live = nextId_;
    for (const std::vector<Entry> &bucket : buckets_)
        for (const Entry &entry : bucket)
            if (idPending(entry.id))
                min_live = std::min(min_live, entry.id);
    std::vector<uint8_t> flags(static_cast<size_t>(nextId_ - min_live),
                               0);
    for (const std::vector<Entry> &bucket : buckets_)
        for (const Entry &entry : bucket)
            if (idPending(entry.id))
                flags[entry.id - min_live] = 1;
    idBase_ = min_live;
    idFlags_ = std::move(flags);
}

void
EventQueue::resizeCalendar(size_t nbuckets)
{
    // Gather live entries; cancelled residue is dropped for free.
    std::vector<Entry> live;
    live.reserve(pendingCount_);
    Tick min_when = std::numeric_limits<Tick>::max();
    Tick max_when = std::numeric_limits<Tick>::min();
    for (std::vector<Entry> &bucket : buckets_) {
        for (Entry &entry : bucket) {
            if (!idPending(entry.id))
                continue;
            min_when = std::min(min_when, entry.when);
            max_when = std::max(max_when, entry.when);
            live.push_back(std::move(entry));
        }
        bucket.clear();
    }
    buckets_.clear();
    buckets_.resize(nbuckets);
    bucketMask_ = nbuckets - 1;
    // Width tracks the average inter-event gap so the population
    // spreads about one event per bucket. Derived from event content
    // only, so the layout (and everything else) stays deterministic.
    if (live.size() >= 2 && max_when > min_when)
        widthShift_ = widthShiftForGap(
            (max_when - min_when)
            / static_cast<Tick>(live.size() - 1));
    for (Entry &entry : live)
        placeEntry(std::move(entry));
    storedCount_ = pendingCount_;
    cancelledResidue_ = 0;
    scanCacheValid_ = false;
}

bool
EventQueue::findNext(size_t &bucket_out, size_t &slot_out)
{
    if (storedCount_ == 0)
        return false;
    const Tick width = Tick(1) << widthShift_;
    size_t b;
    Tick window_end;
    if (scanCacheValid_ && scanCacheNow_ == now_) {
        b = scanBucket_;
        window_end = scanWindowEnd_;
    } else {
        uint64_t wq = static_cast<uint64_t>(now_) >> widthShift_;
        b = wq & bucketMask_;
        window_end = static_cast<Tick>((wq + 1) << widthShift_);
    }
    const size_t nb = buckets_.size();
    for (size_t i = 0; i < nb; ++i) {
        const std::vector<Entry> &vec = buckets_[b];
        size_t best = vec.size();
        for (size_t s = 0; s < vec.size(); ++s) {
            if (vec[s].when >= window_end)
                continue; // a later revolution of this bucket
            if (best == vec.size() || vec[best] > vec[s])
                best = s;
        }
        if (best != vec.size()) {
            scanCacheValid_ = true;
            scanCacheNow_ = now_;
            scanBucket_ = b;
            scanWindowEnd_ = window_end;
            bucket_out = b;
            slot_out = best;
            return true;
        }
        b = (b + 1) & bucketMask_;
        window_end += width;
    }
    // A full revolution saw nothing: the population is sparser than
    // one table span. Direct-search the whole table for the minimum.
    size_t best_bucket = nb;
    size_t best_slot = 0;
    for (size_t bb = 0; bb < nb; ++bb) {
        const std::vector<Entry> &vec = buckets_[bb];
        for (size_t s = 0; s < vec.size(); ++s) {
            if (best_bucket == nb
                || buckets_[best_bucket][best_slot] > vec[s]) {
                best_bucket = bb;
                best_slot = s;
            }
        }
    }
    DCBATT_ASSERT(best_bucket != nb,
                  "calendar lost entries (stored %zu)", storedCount_);
    uint64_t wq = static_cast<uint64_t>(
                      buckets_[best_bucket][best_slot].when)
        >> widthShift_;
    scanCacheValid_ = true;
    scanCacheNow_ = now_;
    scanBucket_ = best_bucket;
    scanWindowEnd_ = static_cast<Tick>((wq + 1) << widthShift_);
    bucket_out = best_bucket;
    slot_out = best_slot;
    return true;
}

size_t
EventQueue::execute(Tick until)
{
    size_t executed = 0;
    while (pendingCount_ > 0) {
        size_t b = 0;
        size_t s = 0;
        bool found = findNext(b, s);
        DCBATT_ASSERT(found, "pending events missing from calendar");
        std::vector<Entry> &vec = buckets_[b];
        if (vec[s].when > until)
            break;
        // Swap-remove in place (not a helper returning by value: every
        // extra Entry move costs a std::function manager call on this
        // per-event path).
        Entry entry = std::move(vec[s]);
        if (s != vec.size() - 1)
            vec[s] = std::move(vec.back());
        vec.pop_back();
        --storedCount_;
        if (!idPending(entry.id)) {
            --cancelledResidue_; // cancelled while queued
            continue;
        }
        clearId(entry.id);
        --pendingCount_;
        // The pop order and the schedule-in-the-past precondition
        // together guarantee monotonic event time; a violation here
        // means the queue state is corrupted.
        DCBATT_ASSERT(entry.when >= now_,
                      "event time moved backwards: %lld after %lld",
                      static_cast<long long>(entry.when),
                      static_cast<long long>(now_));
        // Re-key the scan cursor to the tick being advanced to so the
        // next dequeue resumes in this window.
        if (scanCacheValid_)
            scanCacheNow_ = entry.when;
        now_ = entry.when;
        entry.callback();
        ++executed;
        if (buckets_.size() > kMinBuckets
            && pendingCount_ < buckets_.size() / 8)
            resizeCalendar(buckets_.size() / 2);
    }
    return executed;
}

size_t
EventQueue::runUntil(Tick until)
{
    size_t executed = execute(until);
    // The horizon was simulated even if no event landed exactly on it.
    now_ = std::max(now_, until);
    return executed;
}

size_t
EventQueue::run()
{
    return execute(std::numeric_limits<Tick>::max());
}

PeriodicTask::PeriodicTask(EventQueue &queue, Tick period,
                           Callback callback)
    : queue_(queue), period_(period), callback_(std::move(callback))
{
    DCBATT_REQUIRE(period_ > 0, "period must be positive, got %lld",
                   static_cast<long long>(period_));
}

PeriodicTask::~PeriodicTask()
{
    stop();
}

void
PeriodicTask::start(Tick phase)
{
    if (armed_)
        stop();
    armed_ = true;
    Tick first = phase < 0 ? period_ : phase;
    pending_ = queue_.scheduleAfter(first, [this] { fire(); });
}

void
PeriodicTask::stop()
{
    if (!armed_)
        return;
    armed_ = false;
    queue_.cancel(pending_);
    pending_ = 0;
}

void
PeriodicTask::fire()
{
    if (!armed_)
        return;
    // Re-arm before invoking the callback so the callback may stop()
    // the task and have that take effect.
    pending_ = queue_.scheduleAfter(period_, [this] { fire(); });
    callback_(queue_.now());
}

} // namespace dcbatt::sim

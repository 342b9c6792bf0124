#include "sim/event_queue.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "util/check.h"

namespace dcbatt::sim {

EventId
EventQueue::schedule(Tick when, Callback callback)
{
    DCBATT_REQUIRE(when >= now_,
                   "tick %lld is in the past (now %lld)",
                   static_cast<long long>(when),
                   static_cast<long long>(now_));
    size_t slot;
    if (freeSlots_.empty()) {
        slot = slots_.size();
        slots_.push_back(std::move(callback));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(callback);
    }
    EventId id = nextId_++;
    heap_.push_back(Key{when, id, slot});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
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
    auto it = std::find_if(heap_.begin(), heap_.end(),
                           [id](const Key &key) { return key.id == id; });
    if (it == heap_.end())
        return false;
    size_t slot = it->slot;
    *it = heap_.back();
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    // Destroyed once the queue is consistent again, in case the
    // callback's captures schedule or cancel from their destructors.
    Callback dead = std::move(slots_[slot]);
    freeSlots_.push_back(slot);
    return true;
}

size_t
EventQueue::execute(Tick until)
{
    size_t executed = 0;
    while (!heap_.empty() && heap_.front().when <= until) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const Key top = heap_.back();
        heap_.pop_back();
        // The pop order and the schedule-in-the-past precondition
        // together guarantee monotonic event time; a violation here
        // means the queue state is corrupted.
        DCBATT_ASSERT(top.when >= now_,
                      "event time moved backwards: %lld after %lld",
                      static_cast<long long>(top.when),
                      static_cast<long long>(now_));
        now_ = top.when;
        // Moved out before the call: the callback may schedule, which
        // can reuse the slot or grow slots_.
        Callback callback = std::move(slots_[top.slot]);
        freeSlots_.push_back(top.slot);
        callback();
        ++executed;
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

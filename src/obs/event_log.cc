#include "obs/event_log.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>

#include "obs/text_output.h"
#include "util/annotations.h"
#include "util/logging.h"

namespace dcbatt::obs {

namespace detail {

std::atomic<bool> g_event_logging{false};

/**
 * One scope's journal. The mutex is effectively uncontended (a scope
 * has one serial owner at a time); it exists so a crash-bundle dump
 * on one thread can read another scope's tail safely.
 */
struct ScopeBuffer
{
    /** Immutable after registration (set under the registry lock). */
    std::string name;
    size_t capacity = 0;
    util::Mutex mutex;
    std::deque<EventRecord> events DCBATT_GUARDED_BY(mutex);
    uint64_t nextSeq DCBATT_GUARDED_BY(mutex) = 0;
    uint64_t dropped DCBATT_GUARDED_BY(mutex) = 0;
};

} // namespace detail

namespace {

struct EventLogState
{
    util::Mutex mutex;
    /** Ordered by name: snapshots iterate in merge order for free. */
    std::map<std::string, std::unique_ptr<detail::ScopeBuffer>,
             std::less<>>
        scopes DCBATT_GUARDED_BY(mutex);
    size_t capacityPerScope DCBATT_GUARDED_BY(mutex) = 65536;
};

EventLogState &
state()
{
    // Leaked like the metrics registry: scope frames cached in
    // thread-local storage may outlive main().
    static EventLogState *s = new EventLogState();
    return *s;
}

detail::ScopeBuffer &
scopeBuffer(std::string_view name)
{
    EventLogState &s = state();
    util::MutexLock lock(s.mutex);
    auto it = s.scopes.find(name);
    if (it == s.scopes.end()) {
        auto buffer = std::make_unique<detail::ScopeBuffer>();
        buffer->name = std::string(name);
        buffer->capacity = s.capacityPerScope;
        it = s.scopes.emplace(std::string(name), std::move(buffer))
                 .first;
    }
    return *it->second;
}

/**
 * The calling thread's scope stack. Frame buffers resolve lazily so
 * a RunScope costs nothing until something is actually logged.
 */
struct ScopeFrame
{
    std::string name;
    detail::ScopeBuffer *buffer = nullptr;
};

thread_local std::vector<ScopeFrame> t_scopes;

ScopeFrame &
currentFrame()
{
    if (t_scopes.empty())
        t_scopes.push_back(ScopeFrame{});
    return t_scopes.back();
}

} // namespace

void
setEventLoggingEnabled(bool on)
{
    detail::g_event_logging.store(on, std::memory_order_relaxed);
}

void
setEventCapacityPerScope(size_t capacity)
{
    if (capacity < 1)
        util::fatal("obs: event capacity per scope must be >= 1");
    EventLogState &s = state();
    util::MutexLock lock(s.mutex);
    s.capacityPerScope = capacity;
}

void
logEvent(double t_seconds, std::string_view type,
         std::initializer_list<EventNum> nums,
         std::initializer_list<EventStr> labels)
{
    if (!eventLoggingEnabled())
        return;
    ScopeFrame &frame = currentFrame();
    if (!frame.buffer)
        frame.buffer = &scopeBuffer(frame.name);
    detail::ScopeBuffer &buffer = *frame.buffer;

    EventRecord record;
    record.scope = buffer.name;
    record.tSeconds = t_seconds;
    record.type = std::string(type);
    record.nums.reserve(nums.size());
    for (const EventNum &field : nums)
        record.nums.emplace_back(field.key, field.value);
    record.labels.reserve(labels.size());
    for (const EventStr &field : labels)
        record.labels.emplace_back(field.key,
                                   std::string(field.value));

    util::MutexLock lock(buffer.mutex);
    record.seq = buffer.nextSeq++;
    buffer.events.push_back(std::move(record));
    // Per-scope ring: the drop point depends only on this scope's own
    // append count, never on thread placement.
    while (buffer.events.size() > buffer.capacity) {
        buffer.events.pop_front();
        ++buffer.dropped;
    }
}

RunScope::RunScope(std::string name)
{
    t_scopes.push_back(ScopeFrame{std::move(name), nullptr});
}

RunScope::~RunScope()
{
    t_scopes.pop_back();
}

std::string
currentRunScope()
{
    return t_scopes.empty() ? std::string() : t_scopes.back().name;
}

size_t
eventCount()
{
    EventLogState &s = state();
    util::MutexLock lock(s.mutex);
    size_t total = 0;
    for (const auto &entry : s.scopes) {
        detail::ScopeBuffer &buffer = *entry.second;
        util::MutexLock buffer_lock(buffer.mutex);
        total += buffer.events.size();
    }
    return total;
}

size_t
droppedEventCount()
{
    EventLogState &s = state();
    util::MutexLock lock(s.mutex);
    size_t total = 0;
    for (const auto &entry : s.scopes) {
        detail::ScopeBuffer &buffer = *entry.second;
        util::MutexLock buffer_lock(buffer.mutex);
        total += buffer.dropped;
    }
    return total;
}

std::vector<EventRecord>
snapshotEvents()
{
    EventLogState &s = state();
    util::MutexLock lock(s.mutex);
    std::vector<EventRecord> merged;
    // The scope map is name-ordered and each deque is seq-ordered, so
    // concatenation *is* the (scope, seq) sort.
    for (const auto &entry : s.scopes) {
        detail::ScopeBuffer &buffer = *entry.second;
        util::MutexLock buffer_lock(buffer.mutex);
        merged.insert(merged.end(), buffer.events.begin(),
                      buffer.events.end());
    }
    return merged;
}

std::vector<EventRecord>
lastEvents(size_t n)
{
    std::vector<EventRecord> merged = snapshotEvents();
    std::stable_sort(merged.begin(), merged.end(),
                     [](const EventRecord &a, const EventRecord &b) {
                         if (a.tSeconds != b.tSeconds)
                             return a.tSeconds < b.tSeconds;
                         if (a.scope != b.scope)
                             return a.scope < b.scope;
                         return a.seq < b.seq;
                     });
    if (merged.size() > n)
        merged.erase(merged.begin(),
                     merged.end() - static_cast<ptrdiff_t>(n));
    return merged;
}

std::string
eventsToJsonl(const std::vector<EventRecord> &events, size_t dropped)
{
    std::string out = util::strf(
        "{\"schema\": \"%s\", \"events\": %llu, \"dropped\": %llu}\n",
        kEventSchema, static_cast<unsigned long long>(events.size()),
        static_cast<unsigned long long>(dropped));
    for (const EventRecord &event : events) {
        out += "{\"scope\": ";
        appendJsonString(out, event.scope);
        out += util::strf(", \"seq\": %llu, \"t_s\": %.17g, "
                          "\"type\": ",
                          static_cast<unsigned long long>(event.seq),
                          event.tSeconds);
        appendJsonString(out, event.type);
        for (const auto &[key, value] : event.labels) {
            out += ", ";
            appendJsonString(out, key);
            out += ": ";
            appendJsonString(out, value);
        }
        for (const auto &[key, value] : event.nums) {
            out += ", ";
            appendJsonString(out, key);
            out += util::strf(": %.17g", value);
        }
        out += "}\n";
    }
    return out;
}

void
writeEventsJsonl(const std::string &path)
{
    writeTextFile(path,
                  eventsToJsonl(snapshotEvents(), droppedEventCount()));
}

void
clearEvents()
{
    EventLogState &s = state();
    util::MutexLock lock(s.mutex);
    // Buffers stay registered (thread-local frames cache pointers to
    // them); only their contents reset.
    for (auto &entry : s.scopes) {
        detail::ScopeBuffer &buffer = *entry.second;
        util::MutexLock buffer_lock(buffer.mutex);
        buffer.events.clear();
        buffer.nextSeq = 0;
        buffer.dropped = 0;
    }
}

} // namespace dcbatt::obs

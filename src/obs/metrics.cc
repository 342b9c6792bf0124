#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>

#include "obs/text_output.h"
#include "util/annotations.h"
#include "util/logging.h"

namespace dcbatt::obs {

namespace detail {

/**
 * One thread's slot array. Cells are atomics only so that snapshot()
 * may read them while the owner writes: the owner is the sole writer
 * (store of load+n), so increments are never lost, and cross-thread
 * visibility at snapshot time is handled by the registry mutex the
 * snapshot takes (quiescent callers see exact values).
 */
struct Shard
{
    std::array<std::atomic<uint64_t>, MetricsRegistry::kMaxSlots>
        slots{};
};

namespace {

/** Owner-side increment: plain add, no RMW contention. */
inline void
bump(std::atomic<uint64_t> &cell, uint64_t n)
{
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

} // namespace
} // namespace detail

const char *
toString(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Registry internals
// ---------------------------------------------------------------------

struct MetricsRegistry::Impl
{
    struct Entry
    {
        MetricKind kind;
        /** First slot (counter: 1 slot; histogram: edges+1 slots). */
        size_t slot = 0;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    mutable util::Mutex mutex;
    /** Ordered by name so snapshots iterate deterministically. */
    std::map<std::string, Entry, std::less<>> entries
        DCBATT_GUARDED_BY(mutex);
    size_t nextSlot DCBATT_GUARDED_BY(mutex) = 0;
    /** Shards of live threads. */
    std::vector<detail::Shard *> live DCBATT_GUARDED_BY(mutex);
    /** Accumulated totals of exited threads. */
    detail::Shard retired DCBATT_GUARDED_BY(mutex);
};

namespace {

/** Sum one slot across retired + live shards; registry lock held. */
uint64_t
slotTotalLocked(const MetricsRegistry::Impl &impl, size_t slot)
    DCBATT_REQUIRES(impl.mutex)
{
    uint64_t total =
        impl.retired.slots[slot].load(std::memory_order_relaxed);
    for (const detail::Shard *shard : impl.live)
        total += shard->slots[slot].load(std::memory_order_relaxed);
    return total;
}

} // namespace

namespace {

/**
 * The calling thread's shard, created on first use and retired (its
 * totals folded into the registry) when the thread exits.
 */
struct ThreadShardOwner
{
    detail::Shard *shard = nullptr;
    ~ThreadShardOwner()
    {
        if (shard)
            MetricsRegistry::instance().retireShard(shard);
    }
};

thread_local ThreadShardOwner t_shard_owner;

inline detail::Shard &
threadShard()
{
    if (!t_shard_owner.shard)
        t_shard_owner.shard = MetricsRegistry::instance().adoptShard();
    return *t_shard_owner.shard;
}

} // namespace

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry &
MetricsRegistry::instance()
{
    // Leaked on purpose: worker threads may retire shards after main
    // returns; the registry must outlive every thread.
    static MetricsRegistry *registry = new MetricsRegistry();
    return *registry;
}

detail::Shard *
MetricsRegistry::adoptShard()
{
    auto *shard = new detail::Shard();
    util::MutexLock lock(impl_->mutex);
    impl_->live.push_back(shard);
    return shard;
}

void
MetricsRegistry::retireShard(detail::Shard *shard)
{
    util::MutexLock lock(impl_->mutex);
    for (size_t i = 0; i < kMaxSlots; ++i) {
        uint64_t v = shard->slots[i].load(std::memory_order_relaxed);
        if (v)
            detail::bump(impl_->retired.slots[i], v);
    }
    std::erase(impl_->live, shard);
    delete shard;
}

uint64_t
MetricsRegistry::slotTotal(size_t slot) const
{
    util::MutexLock lock(impl_->mutex);
    return slotTotalLocked(*impl_, slot);
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    util::MutexLock lock(impl_->mutex);
    auto it = impl_->entries.find(name);
    if (it != impl_->entries.end()) {
        if (it->second.kind != MetricKind::Counter) {
            util::fatal(util::strf(
                "obs: metric '%.*s' already registered as %s",
                static_cast<int>(name.size()), name.data(),
                toString(it->second.kind)));
        }
        return *it->second.counter;
    }
    if (impl_->nextSlot + 1 > kMaxSlots)
        util::fatal("obs: metric slot space exhausted");
    Impl::Entry entry;
    entry.kind = MetricKind::Counter;
    entry.slot = impl_->nextSlot++;
    entry.counter.reset(new Counter(entry.slot));
    auto [pos, inserted] =
        impl_->entries.emplace(std::string(name), std::move(entry));
    (void)inserted;
    return *pos->second.counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    util::MutexLock lock(impl_->mutex);
    auto it = impl_->entries.find(name);
    if (it != impl_->entries.end()) {
        if (it->second.kind != MetricKind::Gauge) {
            util::fatal(util::strf(
                "obs: metric '%.*s' already registered as %s",
                static_cast<int>(name.size()), name.data(),
                toString(it->second.kind)));
        }
        return *it->second.gauge;
    }
    Impl::Entry entry;
    entry.kind = MetricKind::Gauge;
    entry.gauge.reset(new Gauge());
    auto [pos, inserted] =
        impl_->entries.emplace(std::string(name), std::move(entry));
    (void)inserted;
    return *pos->second.gauge;
}

Histogram &
MetricsRegistry::histogram(std::string_view name,
                           std::vector<double> edges)
{
    for (size_t i = 1; i < edges.size(); ++i) {
        if (!(edges[i - 1] < edges[i])) {
            util::fatal(util::strf(
                "obs: histogram '%.*s' edges not strictly ascending",
                static_cast<int>(name.size()), name.data()));
        }
    }
    util::MutexLock lock(impl_->mutex);
    auto it = impl_->entries.find(name);
    if (it != impl_->entries.end()) {
        if (it->second.kind != MetricKind::Histogram
            || it->second.histogram->edges_ != edges) {
            util::fatal(util::strf(
                "obs: metric '%.*s' already registered with a "
                "different kind or edge set",
                static_cast<int>(name.size()), name.data()));
        }
        return *it->second.histogram;
    }
    size_t buckets = edges.size() + 1;
    if (impl_->nextSlot + buckets > kMaxSlots)
        util::fatal("obs: metric slot space exhausted");
    Impl::Entry entry;
    entry.kind = MetricKind::Histogram;
    entry.slot = impl_->nextSlot;
    impl_->nextSlot += buckets;
    entry.histogram.reset(
        new Histogram(entry.slot, std::move(edges)));
    auto [pos, inserted] =
        impl_->entries.emplace(std::string(name), std::move(entry));
    (void)inserted;
    return *pos->second.histogram;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    util::MutexLock lock(impl_->mutex);
    MetricsSnapshot snap;
    snap.metrics.reserve(impl_->entries.size());
    for (const auto &[name, entry] : impl_->entries) {
        MetricValue value;
        value.name = name;
        value.kind = entry.kind;
        switch (entry.kind) {
          case MetricKind::Counter:
            value.count = slotTotalLocked(*impl_, entry.slot);
            break;
          case MetricKind::Gauge:
            value.gauge = entry.gauge->value();
            break;
          case MetricKind::Histogram: {
            value.bucketEdges = entry.histogram->edges_;
            size_t buckets = value.bucketEdges.size() + 1;
            value.bucketCounts.resize(buckets);
            for (size_t b = 0; b < buckets; ++b) {
                value.bucketCounts[b] =
                    slotTotalLocked(*impl_, entry.slot + b);
                value.count += value.bucketCounts[b];
            }
            break;
          }
        }
        snap.metrics.push_back(std::move(value));
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    util::MutexLock lock(impl_->mutex);
    for (size_t i = 0; i < kMaxSlots; ++i) {
        impl_->retired.slots[i].store(0, std::memory_order_relaxed);
        for (detail::Shard *shard : impl_->live)
            shard->slots[i].store(0, std::memory_order_relaxed);
    }
    for (auto &[name, entry] : impl_->entries) {
        if (entry.kind == MetricKind::Gauge)
            entry.gauge->set(0.0);
    }
}

// ---------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------

void
Counter::add(uint64_t n)
{
    detail::bump(threadShard().slots[slot_], n);
}

uint64_t
Counter::value() const
{
    return MetricsRegistry::instance().slotTotal(slot_);
}

void
Histogram::observe(double x)
{
    // First edge >= x; an observation exactly at an edge lands in
    // that edge's bucket ((prev, edge] semantics).
    size_t bucket = static_cast<size_t>(
        std::lower_bound(edges_.begin(), edges_.end(), x)
        - edges_.begin());
    detail::bump(threadShard().slots[baseSlot_ + bucket], 1);
}

// ---------------------------------------------------------------------
// Snapshot rendering
// ---------------------------------------------------------------------

const MetricValue *
MetricsSnapshot::find(std::string_view name) const
{
    for (const MetricValue &m : metrics) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

std::string
MetricsSnapshot::toJson() const
{
    std::string out;
    out += "{\n  \"schema\": \"dcbatt-metrics-v1\",\n  \"metrics\": {";
    bool first = true;
    for (const MetricValue &m : metrics) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, m.name);
        out += util::strf(": {\"kind\": \"%s\"", toString(m.kind));
        switch (m.kind) {
          case MetricKind::Counter:
            out += util::strf(
                ", \"value\": %llu",
                static_cast<unsigned long long>(m.count));
            break;
          case MetricKind::Gauge:
            out += util::strf(", \"value\": %.17g", m.gauge);
            break;
          case MetricKind::Histogram: {
            out += util::strf(
                ", \"total\": %llu, \"edges\": [",
                static_cast<unsigned long long>(m.count));
            for (size_t i = 0; i < m.bucketEdges.size(); ++i) {
                out += util::strf("%s%.17g", i ? ", " : "",
                                  m.bucketEdges[i]);
            }
            out += "], \"counts\": [";
            for (size_t i = 0; i < m.bucketCounts.size(); ++i) {
                out += util::strf(
                    "%s%llu", i ? ", " : "",
                    static_cast<unsigned long long>(
                        m.bucketCounts[i]));
            }
            out += "]";
            break;
          }
        }
        out += "}";
    }
    out += "\n  }\n}\n";
    return out;
}

// ---------------------------------------------------------------------
// Free functions
// ---------------------------------------------------------------------

Counter &
counter(std::string_view name)
{
    return MetricsRegistry::instance().counter(name);
}

Gauge &
gauge(std::string_view name)
{
    return MetricsRegistry::instance().gauge(name);
}

Histogram &
histogram(std::string_view name, std::vector<double> edges)
{
    return MetricsRegistry::instance().histogram(name,
                                                 std::move(edges));
}

MetricsSnapshot
snapshotMetrics()
{
    return MetricsRegistry::instance().snapshot();
}

void
writeMetricsJson(const std::string &path)
{
    writeTextFile(path, snapshotMetrics().toJson());
}

} // namespace dcbatt::obs

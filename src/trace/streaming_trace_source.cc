#include "trace/streaming_trace_source.h"

#include <algorithm>
#include <span>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/random.h"

namespace dcbatt::trace {

StreamingTraceSource::StreamingTraceSource(StreamingTraceSpec spec)
    : spec_(std::move(spec)), kernel_(spec_.base)
{
    const TraceGenSpec &base = spec_.base;
    if (spec_.windowSamples == 0)
        util::fatal("StreamingTraceSource: windowSamples must be >= 1");
    if (spec_.maxResidentWindows == 0)
        util::fatal(
            "StreamingTraceSource: maxResidentWindows must be >= 1");

    totalSamples_ = static_cast<size_t>(base.duration / base.step);
    windowCount_ =
        (totalSamples_ + spec_.windowSamples - 1) / spec_.windowSamples;

    // Per-rack static parameters and the initial AR(1) state, drawn
    // from substream 0. Kept for the source's lifetime: the fleet
    // shape is O(racks), not O(samples).
    util::Rng rng(util::Rng::substreamSeed(base.seed, 0));
    checkpoints_.push_back(kernel_.drawRackParameters(base, rng));
    generated_.assign(windowCount_, 0);
}

StreamingTraceSource::Slot *
StreamingTraceSource::residentSlot(size_t w)
{
    for (const auto &slot : resident_) {
        if (slot->index == w)
            return slot.get();
    }
    return nullptr;
}

void
StreamingTraceSource::startWindow(Slot &slot, size_t w)
{
    DCBATT_ASSERT(w < checkpoints_.size(),
                  "window %zu started before its checkpoint", w);
    // All noise inside the window comes from its own substream and its
    // AR(1) state starts at the checkpoint, so (spec, w) fully
    // determine the rows.
    slot.index = w;
    slot.engine = util::Mt64(util::Rng::substreamSeed(spec_.base.seed, w + 1));
    slot.noise = util::StandardNormalStream(slot.engine);
    slot.ar = checkpoints_[w];
    TraceWindow &window = slot.window;
    window.firstSample_ = w * spec_.windowSamples;
    window.samples_ =
        std::min(spec_.windowSamples, totalSamples_ - window.firstSample_);
    window.filled_ = 0;

    if (generated_[w]) {
        ++stats_.refetches;
        DCBATT_COUNT("trace.stream_refetches");
    }
    generated_[w] = 1;
    ++stats_.windowsGenerated;
    DCBATT_COUNT("trace.stream_windows_generated");
}

void
StreamingTraceSource::fillRows(Slot &slot, size_t rows)
{
    TraceWindow &window = slot.window;
    const auto racks = static_cast<size_t>(window.rackCount());
    for (size_t r = window.filled_; r < rows; ++r) {
        kernel_.synthesize(window.firstSample_ + r, slot.noise,
                           slot.ar.data(), window.data_.get() + r * racks);
    }
    window.filled_ = std::max(window.filled_, rows);
    // The carry-over AR(1) state is the only cross-window coupling;
    // completing window w for the first time is what checkpoints the
    // state entering w + 1.
    if (window.filled_ == window.samples_
        && checkpoints_.size() == slot.index + 1
        && slot.index + 1 < windowCount_)
        checkpoints_.push_back(slot.ar);
}

StreamingTraceSource::Slot &
StreamingTraceSource::openWindow(size_t w)
{
    ensureCheckpoint(w);

    // Evict first and recycle the evicted storage. A window evicted
    // before its successor's checkpoint exists is completed first, so
    // the checkpoints appear where whole-window generation made them.
    std::unique_ptr<Slot> slot;
    while (resident_.size() >= spec_.maxResidentWindows) {
        slot = std::move(resident_.front());
        resident_.erase(resident_.begin());
        if (checkpoints_.size() == slot->index + 1
            && slot->index + 1 < windowCount_)
            fillRows(*slot, slot->window.sampleCount());
        ++stats_.evictions;
        DCBATT_COUNT("trace.stream_evictions");
    }

    if (!slot)
        slot = std::make_unique<Slot>(spec_.base.rackCount,
                                      spec_.windowSamples);
    startWindow(*slot, w);

    resident_.push_back(std::move(slot));
    noteResidentBytes();
    return *resident_.back();
}

void
StreamingTraceSource::ensureCheckpoint(size_t w)
{
    // Checkpoints grow strictly left to right: completing window k is
    // what produces checkpoint k+1. A resident window is completed in
    // place; one that never was opened is synthesized here purely to
    // advance the AR state and dropped (it counts as generated, as a
    // dropped whole window always did).
    while (checkpoints_.size() <= w) {
        const size_t k = checkpoints_.size() - 1;
        if (Slot *slot = residentSlot(k)) {
            fillRows(*slot, slot->window.sampleCount());
            continue;
        }
        Slot scratch(spec_.base.rackCount, 1);
        startWindow(scratch, k);
        const TraceWindow &window = scratch.window;
        for (size_t s = 0; s < window.sampleCount(); ++s) {
            kernel_.synthesize(window.firstSample() + s, scratch.noise,
                               scratch.ar.data(), window.data_.get());
        }
        checkpoints_.push_back(std::move(scratch.ar));
    }
}

size_t
StreamingTraceSource::residentBytes() const
{
    size_t bytes = 0;
    for (const auto &slot : resident_)
        bytes += slot->window.memoryBytes();
    return bytes;
}

void
StreamingTraceSource::noteResidentBytes()
{
    size_t bytes = residentBytes();
    stats_.peakResidentBytes =
        std::max(stats_.peakResidentBytes, bytes);
    // Max-merged across sources and threads, so the snapshot is
    // identical at any worker count.
    static obs::Gauge &resident_gauge =
        obs::gauge("trace.stream_resident_bytes_peak");
    resident_gauge.setMax(static_cast<double>(bytes));
}

const TraceWindow &
StreamingTraceSource::windowFor(size_t sample_index)
{
    DCBATT_REQUIRE(sample_index < totalSamples_,
                   "sample %zu outside trace of %zu samples",
                   sample_index, totalSamples_);
    const size_t w = windowIndexFor(sample_index);
    Slot *slot = residentSlot(w);
    if (slot == nullptr)
        slot = &openWindow(w);
    const size_t row = sample_index - slot->window.firstSample() + 1;
    if (slot->window.filledRows() < row)
        fillRows(*slot, row);
    return slot->window;
}

TraceSet
StreamingTraceSource::materialize()
{
    TraceSet set(spec_.base.startTime, spec_.base.step,
                 spec_.base.rackCount);
    for (size_t s = 0; s < totalSamples_; ++s) {
        const TraceWindow &window = windowFor(s);
        set.appendSample(std::span<const double>(
            window.row(s), static_cast<size_t>(rackCount())));
    }
    return set;
}

} // namespace dcbatt::trace

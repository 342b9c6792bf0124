/**
 * @file
 * Streaming, windowed trace source with bounded memory.
 *
 * A region-scale run (50 MSBs x 300 racks x a day at 3 s) would
 * materialize ~3.5 GB of per-rack samples through TraceSet; almost all
 * of it is read exactly once, in time order. StreamingTraceSource
 * generalizes the TraceGenerator/TraceCache pair into a demand-paged
 * source: samples are produced one fixed-size *window* at a time,
 * only a bounded number of windows stay resident, and an evicted
 * window can be re-fetched bit-identically at any later point.
 *
 * Determinism contract (pinned by trace_streaming_test):
 *  - Window w's samples are a pure function of (spec, w): per-window
 *    noise comes from util::Rng substream w+1 of the spec seed, and
 *    the AR(1) carry-over state entering each window is checkpointed
 *    the first time the generator crosses that boundary. Checkpoints
 *    are tiny (one double per rack per window) and are never evicted,
 *    so any access pattern — forward walk, random seeks, re-fetch
 *    after eviction — yields the same bytes.
 *  - The sequence therefore differs from generateTraces() (which
 *    draws from one sequential stream), but the load model is the
 *    same code: both synthesize every sample row through one
 *    TraceRowKernel (trace_row_kernel.h) and differ only in the
 *    engine they hand it.
 *
 * Thread-safety: a source is confined to one shard/thread (the
 * region engine gives each MSB its own source). Concurrent use of a
 * single instance is not supported — unlike the immutable TraceSet,
 * fetching mutates the resident-window ring.
 */

#ifndef DCBATT_TRACE_STREAMING_TRACE_SOURCE_H_
#define DCBATT_TRACE_STREAMING_TRACE_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/trace_generator.h"
#include "trace/trace_row_kernel.h"
#include "trace/trace_set.h"
#include "util/units.h"

namespace dcbatt::trace {

/** Streaming-source shape: the generator spec plus paging knobs. */
struct StreamingTraceSpec
{
    /** Load model, fleet shape, seed — same meaning as in generate. */
    TraceGenSpec base;

    /** Samples per window (a paging unit, not a physics quantity). */
    size_t windowSamples = 1200;

    /**
     * Resident-window cap (>= 1). A fetch that would exceed it evicts
     * the oldest resident window first; memory is thereby bounded at
     * maxResidentWindows * windowSamples * rackCount doubles
     * regardless of run length.
     */
    size_t maxResidentWindows = 2;
};

/**
 * One resident window of samples, sample-major: row s holds every
 * rack's power at absolute sample index firstSample() + s, which is
 * the access order of the physics loop (all racks at one instant).
 */
class TraceWindow
{
  public:
    TraceWindow(size_t first_sample, size_t samples, int racks)
        : firstSample_(first_sample), samples_(samples), racks_(racks),
          data_(samples * static_cast<size_t>(racks))
    {
    }

    size_t firstSample() const { return firstSample_; }
    size_t sampleCount() const { return samples_; }
    int rackCount() const { return racks_; }

    /** Row for absolute sample @p index: one value per rack. */
    const double *
    row(size_t index) const
    {
        return data_.data()
            + (index - firstSample_) * static_cast<size_t>(racks_);
    }

    double *mutableData() { return data_.data(); }

    /** Heap footprint of the sample storage. */
    size_t memoryBytes() const { return data_.size() * sizeof(double); }

  private:
    size_t firstSample_;
    size_t samples_;
    int racks_;
    std::vector<double> data_;
};

/** Paging/generation counters (per source). */
struct StreamingTraceStats
{
    uint64_t windowsGenerated = 0;
    /** Generations of a window that had been generated before. */
    uint64_t refetches = 0;
    uint64_t evictions = 0;
    /** High-water mark of resident sample bytes. */
    size_t peakResidentBytes = 0;
};

/** Demand-paged deterministic trace generator (see file comment). */
class StreamingTraceSource final : public DemandRows
{
  public:
    explicit StreamingTraceSource(StreamingTraceSpec spec);

    int rackCount() const { return spec_.base.rackCount; }
    util::Seconds step() const { return spec_.base.step; }
    util::Seconds start() const { return spec_.base.startTime; }
    /** Total samples the spec describes (the virtual trace length). */
    size_t sampleCount() const { return totalSamples_; }
    size_t windowSamples() const { return spec_.windowSamples; }
    /** Number of windows covering the trace (last may be short). */
    size_t windowCount() const { return windowCount_; }

    /**
     * The window containing absolute sample @p sample_index,
     * generating (or re-generating) it if not resident. The returned
     * pointer stays valid until maxResidentWindows further *distinct*
     * windows have been fetched; the forward-walking physics loop
     * holds at most one at a time.
     */
    const TraceWindow &windowFor(size_t sample_index);

    /** Window index covering @p sample_index. */
    size_t
    windowIndexFor(size_t sample_index) const
    {
        return sample_index / spec_.windowSamples;
    }

    /** Absolute sample index at time @p t (zero-order hold). */
    size_t
    sampleIndexAt(util::Seconds t) const override
    {
        double rel = (t - spec_.base.startTime).value()
            / spec_.base.step.value();
        if (rel <= 0.0)
            return 0;
        auto idx = static_cast<size_t>(rel);
        return idx >= totalSamples_ ? totalSamples_ - 1 : idx;
    }

    /** Row of sample @p sample_index (fetches the window as needed). */
    const double *
    row(size_t sample_index) override
    {
        return windowFor(sample_index).row(sample_index);
    }

    /** Resident sample bytes right now. */
    size_t residentBytes() const;

    const StreamingTraceStats &stats() const { return stats_; }

    /**
     * Materialize the whole trace as a TraceSet (tests and small
     * runs). Walks windows in order through the normal paging path,
     * so the result is exactly what a streaming consumer would read.
     */
    TraceSet materialize();

  private:
    /** Generate window @p w assuming checkpoints_[w] is populated. */
    std::unique_ptr<TraceWindow> generateWindow(size_t w);
    /** Ensure the AR-state checkpoint for window @p w exists. */
    void ensureCheckpoint(size_t w);
    void noteResidentBytes();

    StreamingTraceSpec spec_;
    size_t totalSamples_ = 0;
    size_t windowCount_ = 0;
    /** Per-rack static parameters (drawn once from substream 0). */
    TraceRowKernel kernel_;
    /**
     * checkpoints_[w] = per-rack AR(1) state entering window w
     * (checkpoints_[0] is the post-init state). Grown left-to-right,
     * never evicted: windowCount * rackCount doubles total.
     */
    std::vector<std::vector<double>> checkpoints_;
    /** 1 once window w has ever been generated (refetch detection). */
    std::vector<uint8_t> generated_;
    /** Resident windows, oldest first (FIFO eviction). */
    std::vector<std::unique_ptr<TraceWindow>> resident_;
    StreamingTraceStats stats_;
};

} // namespace dcbatt::trace

#endif // DCBATT_TRACE_STREAMING_TRACE_SOURCE_H_

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
 * Rows on demand: a resident window keeps its own engine, noise
 * stream and AR(1) state, and windowFor(i) synthesizes its rows only
 * up to sample i. A forward reader therefore builds about one row per
 * row it reads, on its own thread, instead of a whole window at the
 * first read past a window edge. The paging counters do not see the
 * difference: a window counts as generated when its buffer is opened,
 * windows are evicted at the same points, and a window whose
 * successor's checkpoint does not exist yet is completed before its
 * storage is reused, so every checkpoint appears exactly where whole-
 * window generation would have made it.
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
#include "util/check.h"
#include "util/random.h"
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
 * Rows are synthesized in order and on demand (see the file comment):
 * only the first filledRows() are valid.
 */
class TraceWindow
{
  public:
    /** Storage for up to @p capacity_samples rows, none filled. */
    TraceWindow(int racks, size_t capacity_samples)
        : racks_(racks),
          data_(std::make_unique_for_overwrite<double[]>(
              capacity_samples * static_cast<size_t>(racks)))
    {
    }

    size_t firstSample() const { return firstSample_; }
    size_t sampleCount() const { return samples_; }
    int rackCount() const { return racks_; }
    /** Rows synthesized so far, from the first. */
    size_t filledRows() const { return filled_; }

    /** Row for absolute sample @p index: one value per rack. */
    const double *
    row(size_t index) const
    {
        DCBATT_ASSERT(index >= firstSample_
                          && index - firstSample_ < filled_,
                      "sample %zu not filled in window at %zu (%zu rows)",
                      index, firstSample_, filled_);
        return data_.get()
            + (index - firstSample_) * static_cast<size_t>(racks_);
    }

    /** Bytes of the window's samples (sampleCount() rows). */
    size_t
    memoryBytes() const
    {
        return samples_ * static_cast<size_t>(racks_) * sizeof(double);
    }

  private:
    friend class StreamingTraceSource;

    size_t firstSample_ = 0;
    size_t samples_ = 0;
    size_t filled_ = 0;
    int racks_;
    std::unique_ptr<double[]> data_;
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
     * The window containing absolute sample @p sample_index, opening
     * (or re-opening) it if not resident, with its rows filled at
     * least through @p sample_index. The returned reference stays
     * valid until maxResidentWindows further *distinct* windows have
     * been fetched; the forward-walking physics loop holds at most one
     * at a time.
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
    /** A resident window and the generator state of its next row. */
    struct Slot
    {
        /** Storage only: startWindow() seeds it for a window. */
        Slot(int racks, size_t capacity_samples)
            : window(racks, capacity_samples), engine(0), noise(engine)
        {
        }

        size_t index = 0;
        TraceWindow window;
        util::Mt64 engine;
        util::StandardNormalStream noise;
        std::vector<double> ar;
    };

    /** The resident slot of window @p w, or null. */
    Slot *residentSlot(size_t w);
    /** Open window @p w in a recycled (or new) slot, evicting first. */
    Slot &openWindow(size_t w);
    /**
     * Point @p slot at window @p w with no row filled, and count one
     * generation of @p w.
     */
    void startWindow(Slot &slot, size_t w);
    /** Synthesize @p slot's rows up to (not including) row @p rows. */
    void fillRows(Slot &slot, size_t rows);
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
    std::vector<std::unique_ptr<Slot>> resident_;
    StreamingTraceStats stats_;
};

} // namespace dcbatt::trace

#endif // DCBATT_TRACE_STREAMING_TRACE_SOURCE_H_

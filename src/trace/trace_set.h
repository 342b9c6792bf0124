/**
 * @file
 * A set of per-rack power traces sampled on a common clock.
 *
 * The paper's simulation experiments replay "rack power trace[s] at
 * 3 second granularity for racks under an MSB" (Section V-B). TraceSet
 * is that object: one fixed-step series per rack, plus aggregate and
 * peak-finding helpers and CSV round-trip.
 */

#ifndef DCBATT_TRACE_TRACE_SET_H_
#define DCBATT_TRACE_TRACE_SET_H_

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/time_series.h"
#include "util/units.h"

namespace dcbatt::trace {

/** Per-rack power traces on a shared clock. */
class TraceSet
{
  public:
    TraceSet() = default;
    TraceSet(util::Seconds start, util::Seconds step, int rack_count);

    int rackCount() const { return static_cast<int>(racks_.size()); }
    size_t sampleCount() const
    {
        return racks_.empty() ? 0 : racks_.front().size();
    }
    util::Seconds step() const { return step_; }
    util::Seconds start() const { return start_; }

    util::TimeSeries &rack(int i)
    {
        // The caller may mutate the series through this reference, so
        // conservatively drop the cached aggregate.
        aggValid_ = false;
        peakCached_ = false;
        return racks_[static_cast<size_t>(i)];
    }
    const util::TimeSeries &rack(int i) const
    {
        return racks_[static_cast<size_t>(i)];
    }

    /** Rack i's power at time t (zero-order hold), in watts. */
    util::Watts rackPower(int i, util::Seconds t) const
    {
        return util::Watts(rack(i).sample(t));
    }

    /**
     * Sum of all rack series. Cached: the traces are generated (or
     * loaded) once and replayed read-only by every experiment, so the
     * sum is computed on first use and invalidated by mutation.
     */
    const util::TimeSeries &aggregate() const;

    /**
     * Index of the first local maximum of the day-smoothed aggregate —
     * "the first peak in the trace", where the paper injects its open
     * transitions because available power is most constrained.
     */
    size_t firstPeakIndex() const;

    /**
     * Populate the lazy aggregate/peak caches now. The caches are not
     * synchronized (a mutex member would make TraceSet non-copyable),
     * so a set that will be read by several threads at once must be
     * warmed on one thread first — SweepRunner and the trace cache do
     * this before sharing; after warming, every const accessor is a
     * pure read.
     */
    void warmCaches() const
    {
        aggregate();
        firstPeakIndex();
    }

    /**
     * Approximate heap footprint of the sample storage in bytes
     * (per-rack series plus the cached aggregate) — the quantity
     * behind the trace cache's `trace.cache_bytes` gauge.
     */
    size_t memoryBytes() const
    {
        size_t samples = 0;
        for (const util::TimeSeries &series : racks_)
            samples += series.size();
        samples += aggCache_.size();
        return samples * sizeof(double);
    }

    /**
     * Append one sample per rack (values in watts). Takes a span so
     * callers can stage a row in any contiguous buffer without copying
     * into a std::vector first.
     */
    void appendSample(std::span<const double> rack_watts);
    void
    appendSample(std::initializer_list<double> rack_watts)
    {
        appendSample(
            std::span<const double>(rack_watts.begin(),
                                    rack_watts.size()));
    }

    /** CSV persistence: header row, then time + one column per rack. */
    void save(const std::string &path) const;
    /** Read save()'s format; fatal() on a bad field or falling time. */
    static TraceSet load(const std::string &path);

  private:
    util::Seconds start_{0.0};
    util::Seconds step_{3.0};
    std::vector<util::TimeSeries> racks_;
    /** Lazily computed caches (invalidated by any mutation). */
    mutable util::TimeSeries aggCache_;
    mutable bool aggValid_ = false;
    mutable size_t peakCache_ = 0;
    mutable bool peakCached_ = false;
};

/**
 * Sample-major rack demand: the seam between a trace and the MSB step
 * kernel (core::MsbRun). The kernel makes one index lookup per physics
 * step and one row fetch per sample change, never a call per rack.
 */
class DemandRows
{
  public:
    /** Sample index in force at time @p t of the run's clock. */
    virtual size_t sampleIndexAt(util::Seconds t) const = 0;

    /**
     * Every rack's demand (W) at sample @p index. Valid until the next
     * call.
     */
    virtual const double *row(size_t index) = 0;

  protected:
    /** Never deleted through this interface. */
    ~DemandRows() = default;
};

} // namespace dcbatt::trace

#endif // DCBATT_TRACE_TRACE_SET_H_

/**
 * @file
 * StreamingTraceSource determinism and paging contract.
 *
 * The pinned contract (streaming_trace_source.h): window w is a pure
 * function of (spec, w) — any access pattern, including re-fetching
 * a window after it was evicted, yields the same bytes; and resident
 * memory is bounded by maxResidentWindows regardless of run length.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/streaming_trace_source.h"
#include "trace/trace_set.h"
#include "util/check.h"
#include "util/units.h"

namespace dcbatt::trace {
namespace {

StreamingTraceSpec
smallSpec(size_t window_samples = 50, size_t resident = 2)
{
    StreamingTraceSpec spec;
    spec.base.rackCount = 8;
    spec.base.duration = util::hours(1.0);   // 1200 samples at 3 s
    spec.base.seed = 1234;
    spec.base.aggregateMean = util::kilowatts(50.0);
    spec.base.aggregateAmplitude = util::kilowatts(5.0);
    spec.windowSamples = window_samples;
    spec.maxResidentWindows = resident;
    return spec;
}

/** Every sample of the trace, through the normal paging path. */
std::vector<double>
forwardWalk(StreamingTraceSource &source)
{
    std::vector<double> flat;
    for (size_t s = 0; s < source.sampleCount(); ++s) {
        for (int r = 0; r < source.rackCount(); ++r)
            flat.push_back(source.row(s)[r]);
    }
    return flat;
}

TEST(StreamingTrace, ShapeAndWindowMath)
{
    StreamingTraceSource source(smallSpec());
    EXPECT_EQ(source.sampleCount(), 1200u);
    EXPECT_EQ(source.windowCount(), 24u);
    EXPECT_EQ(source.windowIndexFor(0), 0u);
    EXPECT_EQ(source.windowIndexFor(49), 0u);
    EXPECT_EQ(source.windowIndexFor(50), 1u);
    EXPECT_EQ(source.sampleIndexAt(util::Seconds(0.0)), 0u);
    EXPECT_EQ(source.sampleIndexAt(util::Seconds(3.0)), 1u);
    EXPECT_EQ(source.sampleIndexAt(util::Seconds(4.5)), 1u);
    // Clamped at both ends.
    EXPECT_EQ(source.sampleIndexAt(util::Seconds(-10.0)), 0u);
    EXPECT_EQ(source.sampleIndexAt(util::hours(100.0)), 1199u);
}

TEST(StreamingTrace, RefetchAfterEvictionIsBitIdentical)
{
    StreamingTraceSource forward(smallSpec());
    std::vector<double> reference = forwardWalk(forward);
    // The forward walk with 24 windows and 2 resident must have
    // evicted almost everything.
    EXPECT_EQ(forward.stats().windowsGenerated, 24u);
    EXPECT_EQ(forward.stats().evictions, 22u);
    EXPECT_EQ(forward.stats().refetches, 0u);

    // Walk again: every window is refetched post-eviction and must
    // reproduce exactly.
    std::vector<double> again = forwardWalk(forward);
    ASSERT_EQ(reference.size(), again.size());
    for (size_t i = 0; i < reference.size(); ++i)
        ASSERT_EQ(reference[i], again[i]) << "flat index " << i;
    EXPECT_GE(forward.stats().refetches, 22u);
}

TEST(StreamingTrace, AccessPatternIndependence)
{
    // Jumping straight to the last window forces the checkpoint chain
    // to be built first; the values must match a plain forward walk
    // on a fresh source.
    StreamingTraceSource forward(smallSpec());
    std::vector<double> reference = forwardWalk(forward);

    StreamingTraceSource seeker(smallSpec());
    size_t last = seeker.sampleCount() - 1;
    // Read back-to-front, then front-to-back.
    for (size_t s = last + 1; s-- > 0;) {
        for (int r = 0; r < seeker.rackCount(); ++r) {
            ASSERT_EQ(seeker.row(s)[r],
                      reference[s * 8 + static_cast<size_t>(r)])
                << "sample " << s << " rack " << r;
        }
    }
}

TEST(StreamingTrace, ResidentMemoryIsBounded)
{
    StreamingTraceSpec spec = smallSpec(50, 3);
    StreamingTraceSource source(spec);
    const size_t window_bytes =
        spec.windowSamples * static_cast<size_t>(spec.base.rackCount)
        * sizeof(double);
    for (size_t s = 0; s < source.sampleCount(); s += 7) {
        source.windowFor(s);
        EXPECT_LE(source.residentBytes(), 3 * window_bytes);
    }
    EXPECT_LE(source.stats().peakResidentBytes, 3 * window_bytes);
    EXPECT_GT(source.stats().evictions, 0u);
}

TEST(StreamingTrace, MaterializeMatchesPagedReads)
{
    StreamingTraceSource source(smallSpec());
    TraceSet set = source.materialize();
    ASSERT_EQ(set.rackCount(), source.rackCount());
    ASSERT_EQ(set.sampleCount(), source.sampleCount());

    StreamingTraceSource fresh(smallSpec());
    for (size_t s = 0; s < fresh.sampleCount(); ++s) {
        for (int r = 0; r < fresh.rackCount(); ++r)
            ASSERT_EQ(set.rack(r)[s], fresh.row(s)[r]);
    }
}

TEST(StreamingTrace, WindowSizeDoesNotChangeTotals)
{
    // The paging unit is an implementation knob, not a semantic one?
    // No: windows own RNG substreams, so DIFFERENT window sizes are
    // different generators by design. What must hold instead is that
    // the same window size reproduces across instances.
    StreamingTraceSource a(smallSpec(50, 2));
    StreamingTraceSource b(smallSpec(50, 5));
    // Different residency caps, same windowing: identical samples.
    for (size_t s = 0; s < a.sampleCount(); s += 13) {
        for (int r = 0; r < a.rackCount(); ++r)
            ASSERT_EQ(a.row(s)[r], b.row(s)[r]);
    }
}

/** Window @p w with every row filled (rows fill as they are read). */
const TraceWindow &
filledWindow(StreamingTraceSource &source, size_t w)
{
    size_t end = std::min((w + 1) * source.windowSamples(),
                          source.sampleCount());
    return source.windowFor(end - 1);
}

/** FNV-1a over the exact bytes of one window's samples. */
uint64_t
windowChecksum(const TraceWindow &window)
{
    uint64_t hash = 1469598103934665603ull;
    for (size_t s = 0; s < window.sampleCount(); ++s) {
        const double *row = window.row(window.firstSample() + s);
        for (int r = 0; r < window.rackCount(); ++r) {
            const auto *p = reinterpret_cast<const unsigned char *>(
                &row[static_cast<size_t>(r)]);
            for (size_t i = 0; i < sizeof(double); ++i) {
                hash ^= p[i];
                hash *= 1099511628211ull;
            }
        }
    }
    return hash;
}

// Byte pins of the first, a middle and the last (short) window of a
// region-shaped MSB trace, for two seeds. The values were recorded
// from the original per-rack window loop; any change that moves a bit
// fails them.
TEST(StreamingTrace, WindowBytesPinned)
{
    struct Pin
    {
        uint64_t seed;
        uint64_t first;
        uint64_t middle;
        uint64_t last;
    };
    const Pin pins[] = {
        {7, 0xcef4926980591141ull, 0x66be708caffb141aull,
         0x9f02a586eb7f8229ull},
        {20201017, 0xced423b948fa0152ull, 0xd6c379d6aeeb9dc8ull,
         0x9380985768ddd2dfull},
    };
    for (const Pin &pin : pins) {
        StreamingTraceSpec spec;
        spec.base.rackCount = 64;
        spec.base.duration = util::hours(6.0) + util::Seconds(3.0);
        spec.base.seed = pin.seed;
        spec.base.aggregateMean = util::kilowatts(430.0);
        spec.base.aggregateAmplitude = util::kilowatts(32.0);
        spec.base.priorities = {power::Priority::P1, power::Priority::P2,
                                power::Priority::P2, power::Priority::P3};
        StreamingTraceSource source(spec);
        ASSERT_EQ(source.windowCount(), 7u);
        EXPECT_EQ(windowChecksum(filledWindow(source, 0)), pin.first)
            << "seed " << pin.seed;
        EXPECT_EQ(windowChecksum(filledWindow(source, 3)), pin.middle)
            << "seed " << pin.seed;
        EXPECT_EQ(windowChecksum(filledWindow(source, 6)), pin.last)
            << "seed " << pin.seed;
    }
}

TEST(StreamingTrace, RowsFillOnDemand)
{
    StreamingTraceSource source(smallSpec());
    const TraceWindow &first = source.windowFor(0);
    EXPECT_EQ(first.filledRows(), 1u);
    EXPECT_EQ(source.windowFor(17).filledRows(), 18u);
    // Reading back inside the filled prefix synthesizes nothing.
    EXPECT_EQ(source.windowFor(3).filledRows(), 18u);
    // Crossing into window 1 completes window 0 (its AR state is window
    // 1's checkpoint); window 1 then holds just the rows read.
    const TraceWindow &second = source.windowFor(52);
    EXPECT_EQ(first.filledRows(), 50u);
    EXPECT_EQ(second.firstSample(), 50u);
    EXPECT_EQ(second.filledRows(), 3u);
    // A window counts as generated when it is opened, as before.
    EXPECT_EQ(source.stats().windowsGenerated, 2u);
}

TEST(StreamingTrace, SeeksKeepWholeWindowCounts)
{
    // One resident window, read 5 -> 2 -> 6. Opening 5 synthesizes
    // windows 0..4 only for their AR state; reopening 2 evicts 5
    // half-read, which is completed first so checkpoint 6 exists; 6 is
    // then opened without touching 5 again. These are the counts
    // whole-window generation gave.
    StreamingTraceSource source(smallSpec(50, 1));
    StreamingTraceSource forward(smallSpec());
    std::vector<double> reference = forwardWalk(forward);
    for (size_t s : {5 * 50 + 10, 2 * 50 + 7, 6 * 50 + 49}) {
        for (int r = 0; r < source.rackCount(); ++r) {
            ASSERT_EQ(source.row(s)[r],
                      reference[s * 8 + static_cast<size_t>(r)])
                << "sample " << s;
        }
    }
    EXPECT_EQ(source.stats().windowsGenerated, 8u);
    EXPECT_EQ(source.stats().refetches, 1u);
    EXPECT_EQ(source.stats().evictions, 2u);
}

#if DCBATT_CHECKS_ENABLED
TEST(StreamingTraceDeathTest, UnfilledRowAsserts)
{
    StreamingTraceSource source(smallSpec());
    const TraceWindow &window = source.windowFor(4);
    EXPECT_DEATH(window.row(5), "not filled");
}
#endif

TEST(StreamingTrace, AggregateTracksTarget)
{
    StreamingTraceSource source(smallSpec());
    double sum = 0.0;
    for (size_t s = 0; s < source.sampleCount(); ++s) {
        const TraceWindow &window = source.windowFor(s);
        double column = 0.0;
        for (int r = 0; r < source.rackCount(); ++r)
            column += window.row(s)[r];
        sum += column;
    }
    double mean = sum / static_cast<double>(source.sampleCount());
    // Calibration pins the aggregate near the configured band unless
    // per-rack clamps bind (they do not at 50 kW / 8 racks).
    EXPECT_NEAR(mean, 50e3, 5e3);
}

} // namespace
} // namespace dcbatt::trace

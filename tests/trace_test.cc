/**
 * @file
 * Tests of the TraceSet container and the synthetic production trace
 * generator (Fig. 12 calibration), plus the differential check of
 * both synthesizers against the per-rack reference loop.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "trace/streaming_trace_source.h"
#include "trace/trace_generator.h"
#include "trace/trace_row_kernel.h"
#include "trace/trace_set.h"
#include "util/random.h"
#include "util/simd.h"

namespace dcbatt::trace {
namespace {

using util::Seconds;
using util::TimeSeries;

TraceGenSpec
smallSpec()
{
    TraceGenSpec spec;
    spec.rackCount = 32;
    spec.duration = util::hours(24.0);
    spec.step = Seconds(30.0);
    spec.aggregateMean = util::kilowatts(200.0);
    spec.aggregateAmplitude = util::kilowatts(10.0);
    spec.priorities = {power::Priority::P1, power::Priority::P2,
                       power::Priority::P3};
    return spec;
}

TEST(TraceSet, AppendAndAggregate)
{
    TraceSet set(Seconds(0.0), Seconds(3.0), 2);
    set.appendSample({100.0, 200.0});
    set.appendSample({150.0, 250.0});
    EXPECT_EQ(set.rackCount(), 2);
    EXPECT_EQ(set.sampleCount(), 2u);
    TimeSeries agg = set.aggregate();
    EXPECT_DOUBLE_EQ(agg[0], 300.0);
    EXPECT_DOUBLE_EQ(agg[1], 400.0);
    EXPECT_DOUBLE_EQ(set.rackPower(1, Seconds(4.0)).value(), 250.0);
}

TEST(TraceSetDeathTest, WrongSampleWidthPanics)
{
    TraceSet set(Seconds(0.0), Seconds(3.0), 2);
    EXPECT_DEATH(set.appendSample({1.0}), "wrong rack count");
}

TEST(TraceSet, CsvRoundTrip)
{
    TraceSet set(Seconds(12.0), Seconds(3.0), 3);
    set.appendSample({1.5, 2.5, 3.5});
    set.appendSample({4.25, 5.0, 6.0});
    set.appendSample({7.0, 8.0, 9.0});
    std::string path = testing::TempDir() + "/dcbatt_trace_test.csv";
    set.save(path);
    TraceSet loaded = TraceSet::load(path);
    EXPECT_EQ(loaded.rackCount(), 3);
    EXPECT_EQ(loaded.sampleCount(), 3u);
    EXPECT_NEAR(loaded.step().value(), 3.0, 1e-9);
    EXPECT_NEAR(loaded.start().value(), 12.0, 1e-9);
    for (int r = 0; r < 3; ++r) {
        for (size_t s = 0; s < 3; ++s)
            EXPECT_NEAR(loaded.rack(r)[s], set.rack(r)[s], 1e-3);
    }
    std::filesystem::remove(path);
}

/** Write @p text as this test's trace file and load it. */
void
loadText(const std::string &text)
{
    std::string path = testing::TempDir() + "/dcbatt_trace_"
        + testing::UnitTest::GetInstance()->current_test_info()->name()
        + ".csv";
    {
        std::ofstream out(path);
        out << text;
    }
    (void)TraceSet::load(path);
}

TEST(TraceSetDeathTest, EmptyPowerFieldIsFatal)
{
    EXPECT_EXIT(loadText("time_s,rack0_w,rack1_w\n"
                         "0.000,1.5,2.5\n"
                         "3.000,,5.0\n"
                         "6.000,7.0,8.0\n"),
                ::testing::ExitedWithCode(1),
                "\\.csv: row 2, column 2 \\(rack0_w\\): "
                "'' is not a finite number");
}

TEST(TraceSetDeathTest, MalformedFieldsAreFatal)
{
    EXPECT_EXIT(loadText("time_s,rack0_w\n0.000,1.5\n3.000,4.2kW\n"),
                ::testing::ExitedWithCode(1),
                "row 2, column 2 \\(rack0_w\\): '4.2kW' is not a finite "
                "number");
    EXPECT_EXIT(loadText("time_s,rack0_w\n0.000,1.5\n3.000,nan\n"),
                ::testing::ExitedWithCode(1),
                "row 2, column 2 \\(rack0_w\\): 'nan'");
    EXPECT_EXIT(loadText("time_s,rack0_w\nx,1.5\n3.000,2.0\n"),
                ::testing::ExitedWithCode(1),
                "row 1, column 1 \\(time_s\\): 'x' is not a finite "
                "number");
}

TEST(TraceSetDeathTest, NonIncreasingTimeIsFatal)
{
    EXPECT_EXIT(loadText("time_s,rack0_w\n3.000,1.5\n3.000,2.0\n"),
                ::testing::ExitedWithCode(1),
                "row 2, column 1 \\(time_s\\): time 3 s does not follow "
                "3 s");
    EXPECT_EXIT(loadText("time_s,rack0_w\n0.000,1.5\n3.000,2.0\n"
                         "2.000,2.5\n"),
                ::testing::ExitedWithCode(1),
                "row 3, column 1 \\(time_s\\): time 2 s does not follow "
                "3 s");
}

TEST(Generator, DeterministicInSeed)
{
    TraceGenSpec spec = smallSpec();
    TraceSet a = generateTraces(spec);
    TraceSet b = generateTraces(spec);
    for (size_t s = 0; s < a.sampleCount(); s += 97)
        EXPECT_DOUBLE_EQ(a.rack(5)[s], b.rack(5)[s]);
    spec.seed = 43;
    TraceSet c = generateTraces(spec);
    EXPECT_NE(a.rack(5)[100], c.rack(5)[100]);
}

TEST(Generator, AggregateTracksTargetBand)
{
    TraceGenSpec spec = smallSpec();
    TraceSet set = generateTraces(spec);
    TimeSeries agg = set.aggregate();
    // Mean within 2% of target; excursions within the diurnal band
    // plus noise slack.
    EXPECT_NEAR(agg.mean(), 200e3, 4e3);
    EXPECT_GT(agg.minValue(), 200e3 - 10e3 - 4e3);
    EXPECT_LT(agg.maxValue(), 200e3 + 10e3 + 4e3);
}

TEST(Generator, PaperFleetBandIs1_9To2_1MW)
{
    // The headline Fig. 12 calibration: 316 racks, diurnal band
    // 1.9-2.1 MW.
    TraceGenSpec spec;
    spec.rackCount = 316;
    spec.duration = util::hours(48.0);
    spec.step = Seconds(60.0);
    spec.priorities = paperMsbPriorities();
    TraceSet set = generateTraces(spec);
    TimeSeries agg = set.aggregate();
    EXPECT_NEAR(agg.maxValue(), 2.1e6, 0.03e6);
    EXPECT_NEAR(agg.minValue(), 1.9e6, 0.03e6);
}

TEST(Generator, RackPowerWithinEnvelope)
{
    TraceGenSpec spec = smallSpec();
    TraceSet set = generateTraces(spec);
    for (int r = 0; r < set.rackCount(); ++r) {
        for (size_t s = 0; s < set.sampleCount(); s += 13) {
            ASSERT_GE(set.rack(r)[s], spec.rackMinPower.value());
            ASSERT_LE(set.rack(r)[s], spec.rackMaxPower.value());
        }
    }
}

TEST(Generator, FirstPeakNearConfiguredPeakTime)
{
    TraceGenSpec spec = smallSpec();
    spec.duration = util::hours(36.0);
    TraceSet set = generateTraces(spec);
    size_t peak = set.firstPeakIndex();
    double peak_hour = util::toHours(set.rack(0).timeAt(peak));
    // Peak of the first day: 14:00 +/- 1.5 h.
    EXPECT_NEAR(peak_hour, 14.0, 1.5);
}

TEST(Generator, StartTimeShiftsPhase)
{
    TraceGenSpec spec = smallSpec();
    spec.duration = util::hours(8.0);
    spec.startTime = util::hours(10.0);
    TraceSet set = generateTraces(spec);
    EXPECT_NEAR(set.start().value(), 10.0 * 3600.0, 1e-6);
    size_t peak = set.firstPeakIndex();
    double peak_hour = util::toHours(set.rack(0).timeAt(peak));
    EXPECT_NEAR(peak_hour, 14.0, 1.5);
}

TEST(Generator, WeekendDipVisible)
{
    TraceGenSpec spec = smallSpec();
    spec.duration = util::hours(24.0 * 7.0);
    spec.step = Seconds(300.0);
    TraceSet set = generateTraces(spec);
    TimeSeries agg = set.aggregate();
    // Compare the diurnal swing of day 2 (weekday) vs day 6 (weekend).
    auto day_swing = [&](int day) {
        size_t per_day = static_cast<size_t>(24.0 * 3600.0 / 300.0);
        TimeSeries slice = agg.slice(day * per_day,
                                     (day + 1) * per_day);
        return slice.maxValue() - slice.minValue();
    };
    EXPECT_LT(day_swing(5), day_swing(1));
}

TEST(Generator, PaperPrioritiesCount)
{
    auto priorities = paperMsbPriorities();
    EXPECT_EQ(priorities.size(), 316u);
}

TEST(GeneratorDeathTest, RejectsBadSpec)
{
    TraceGenSpec spec = smallSpec();
    spec.rackCount = 0;
    EXPECT_EXIT(generateTraces(spec), testing::ExitedWithCode(1),
                "positive");
}

/** FNV-1a over the exact bytes of every sample, rack-major. */
uint64_t
traceChecksum(const TraceSet &set)
{
    uint64_t hash = 1469598103934665603ull;
    for (int r = 0; r < set.rackCount(); ++r) {
        for (double v : set.rack(r).values()) {
            const auto *p = reinterpret_cast<const unsigned char *>(&v);
            for (size_t i = 0; i < sizeof v; ++i) {
                hash ^= p[i];
                hash *= 1099511628211ull;
            }
        }
    }
    return hash;
}

// Byte pins: any change to the synthesizer that moves a single bit of
// a sample fails these. The values were recorded from the original
// per-rack generator loop.
TEST(Generator, PaperTraceBytesPinned)
{
    // The paper's Section V-B trace (bench_common's spec).
    TraceGenSpec spec;
    spec.rackCount = 316;
    spec.startTime = util::hours(10.0);
    spec.duration = util::hours(8.0);
    spec.step = Seconds(3.0);
    spec.priorities = paperMsbPriorities();
    EXPECT_EQ(traceChecksum(generateTraces(spec)), 0x95eb24e0150282f6ull);
}

TEST(Generator, SmallTraceBytesPinned)
{
    EXPECT_EQ(traceChecksum(generateTraces(smallSpec())),
              0xe07611ae13a31ce4ull);
}

// ---------------------------------------------------------------------
// The per-rack loop both synthesizers carried before the shared row
// kernel, kept here as the reference: one fresh normal draw per rack
// through Rng::normal, the whole model evaluated rack by rack.
// ---------------------------------------------------------------------

struct ReferenceFleet
{
    std::vector<double> base, amplitude, phase, sigma, rho, ar;
};

double
referenceDiurnal(double t_s, double peak_s, double phase_shift_h)
{
    constexpr double day = 24.0 * 3600.0;
    double shifted = t_s - peak_s - phase_shift_h * 3600.0;
    return std::cos(2.0 * std::numbers::pi * shifted / day);
}

ReferenceFleet
referenceFleet(const TraceGenSpec &spec, util::Rng &rng)
{
    ReferenceFleet f;
    for (int i = 0; i < spec.rackCount; ++i) {
        power::Priority p = spec.priorities.empty()
            ? power::Priority::P2
            : spec.priorities[static_cast<size_t>(i)
                              % spec.priorities.size()];
        const RackProfile &prof = spec.profiles[power::priorityIndex(p)];
        f.base.push_back(prof.baseMean.value()
                         + rng.uniform(-prof.baseSpread.value(),
                                       prof.baseSpread.value()));
        f.amplitude.push_back(prof.diurnalAmplitude
                              * rng.uniform(0.7, 1.3));
        f.phase.push_back(prof.diurnalPhaseShift + rng.uniform(-1.0, 1.0));
        f.sigma.push_back(prof.noiseSigma);
        f.rho.push_back(prof.noisePersistence);
        f.ar.push_back(rng.normal(0.0, prof.noiseSigma));
    }
    return f;
}

std::vector<double>
referenceRow(const TraceGenSpec &spec, ReferenceFleet &f, util::Rng &rng,
             size_t sample)
{
    constexpr double day = 24.0 * 3600.0;
    double t = spec.startTime.value()
        + static_cast<double>(sample) * spec.step.value();
    double weekly = static_cast<int>(t / day) % 7 >= 5
        ? 1.0 - spec.weekendDip
        : 1.0;
    double peak_s = spec.peakTimeOfDay.value();
    std::vector<double> row(f.base.size());
    double raw_sum = 0.0;
    for (size_t i = 0; i < row.size(); ++i) {
        double innovation = rng.normal(
            0.0, f.sigma[i] * std::sqrt(1.0 - f.rho[i] * f.rho[i]));
        f.ar[i] = f.rho[i] * f.ar[i] + innovation;
        double shape = 1.0
            + f.amplitude[i] * weekly
                * referenceDiurnal(t, peak_s, f.phase[i])
            + f.ar[i];
        row[i] = std::clamp(f.base[i] * shape, spec.rackMinPower.value(),
                            spec.rackMaxPower.value());
        raw_sum += row[i];
    }
    double target = spec.aggregateMean.value()
        + spec.aggregateAmplitude.value() * weekly
            * referenceDiurnal(t, peak_s, 0.0)
        + rng.normal(0.0, spec.aggregateMean.value()
                              * spec.aggregateNoiseFraction);
    double scale = raw_sum > 0.0 ? target / raw_sum : 1.0;
    for (double &v : row) {
        v = std::clamp(v * scale, spec.rackMinPower.value(),
                       spec.rackMaxPower.value());
    }
    return row;
}

void
expectSameBits(double got, double want, const char *what, size_t sample,
               int rack)
{
    ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << what << " sample " << sample << " rack " << rack;
}

TEST(Generator, MatchesReferenceLoop)
{
    // A week with its weekend, an off-midnight start, a clamp-bound
    // fleet and the default all-P2 mix.
    std::vector<TraceGenSpec> specs(4, smallSpec());
    specs[0].duration = util::hours(24.0 * 7.0);
    specs[0].step = Seconds(600.0);
    specs[1].startTime = util::hours(10.5);
    specs[1].seed = 99;
    specs[2].aggregateMean = util::kilowatts(380.0);
    specs[3].priorities.clear();
    specs[3].rackCount = 7;
    // 1-9 racks (7 above) and 301, so the four-lane row passes leave
    // every tail length, over a shorter trace.
    for (int racks : {1, 2, 3, 4, 5, 6, 8, 9, 301}) {
        TraceGenSpec spec = smallSpec();
        spec.rackCount = racks;
        spec.duration = util::hours(2.0);
        spec.aggregateMean = util::kilowatts(6.0 * racks);
        specs.push_back(spec);
    }
    for (const TraceGenSpec &spec : specs) {
        TraceSet set = generateTraces(spec);
        util::Rng rng(spec.seed);
        ReferenceFleet fleet = referenceFleet(spec, rng);
        for (size_t s = 0; s < set.sampleCount(); ++s) {
            std::vector<double> row = referenceRow(spec, fleet, rng, s);
            for (int r = 0; r < spec.rackCount; ++r)
                expectSameBits(set.rack(r)[s],
                               row[static_cast<size_t>(r)], "generate",
                               s, r);
        }
    }
}

TEST(StreamingTrace, MatchesReferenceLoop)
{
    StreamingTraceSpec spec;
    spec.base = smallSpec();
    spec.base.step = Seconds(3.0);
    spec.base.duration = util::hours(2.0);
    spec.base.startTime = util::hours(13.0);
    spec.windowSamples = 700;
    StreamingTraceSource source(spec);
    util::Rng param_rng(util::Rng::substreamSeed(spec.base.seed, 0));
    ReferenceFleet fleet = referenceFleet(spec.base, param_rng);
    for (size_t w = 0; w < source.windowCount(); ++w) {
        util::Rng rng(util::Rng::substreamSeed(spec.base.seed, w + 1));
        // The window's last sample: windowFor fills rows through it.
        const TraceWindow &window = source.windowFor(
            std::min((w + 1) * spec.windowSamples, source.sampleCount())
            - 1);
        for (size_t s = window.firstSample();
             s < window.firstSample() + window.sampleCount(); ++s) {
            std::vector<double> row =
                referenceRow(spec.base, fleet, rng, s);
            for (int r = 0; r < spec.base.rackCount; ++r)
                expectSameBits(window.row(s)[r],
                               row[static_cast<size_t>(r)], "stream", s,
                               r);
        }
    }
}

/**
 * A spec whose rows hit both clamp bounds: P1 racks run past
 * rackMaxPower, P3's noise drives racks below rackMinPower = 0, and
 * P2 racks have a base of exactly +0.0, so a negative shape yields
 * -0.0 — the tie std::clamp passes through and vmaxpd would not.
 */
TraceGenSpec
clampingSpec(int racks)
{
    TraceGenSpec spec;
    spec.rackCount = racks;
    spec.duration = util::hours(2.0);
    spec.step = Seconds(30.0);
    spec.seed = 4242;
    spec.rackMinPower = util::Watts(0.0);
    spec.rackMaxPower = util::kilowatts(12.6);
    spec.profiles[0].baseMean = util::kilowatts(12.0);
    spec.profiles[0].baseSpread = util::kilowatts(1.0);
    spec.profiles[0].diurnalAmplitude = 0.4;
    spec.profiles[1].baseMean = util::Watts(0.0);
    spec.profiles[1].baseSpread = util::Watts(0.0);
    spec.profiles[1].noiseSigma = 2.0;
    spec.profiles[2].baseMean = util::kilowatts(2.0);
    spec.profiles[2].baseSpread = util::kilowatts(1.0);
    spec.profiles[2].noiseSigma = 1.5;
    // A target well above the raw column, so calibration scales up
    // and the P1 racks stay pinned at the top.
    spec.aggregateMean = util::kilowatts(12.0 * racks);
    spec.aggregateAmplitude = util::kilowatts(0.5 * racks);
    spec.priorities = {power::Priority::P1, power::Priority::P2,
                       power::Priority::P3};
    return spec;
}

TEST(TraceRowKernel, Avx2MatchesScalarBitExact)
{
    if (!util::cpuHasAvx2())
        GTEST_SKIP() << "CPU has no AVX2";
    using util::SimdMode;
    for (int racks : {1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 300, 301, 316}) {
        const TraceGenSpec spec = clampingSpec(racks);
        TraceRowKernel kernel[2] = {TraceRowKernel(spec),
                                    TraceRowKernel(spec)};
        const SimdMode modes[2] = {SimdMode::Scalar, SimdMode::Avx2};
        std::vector<double> ar[2];
        std::vector<util::Mt64> engine;
        for (int m = 0; m < 2; ++m) {
            util::Rng rng(spec.seed);
            ar[m] = kernel[m].drawRackParameters(spec, rng);
            engine.emplace_back(spec.seed + 1, modes[m]);
        }
        util::StandardNormalStream noise[2] = {
            util::StandardNormalStream(engine[0]),
            util::StandardNormalStream(engine[1])};
        std::vector<double> row[2] = {std::vector<double>(ar[0].size()),
                                      std::vector<double>(ar[0].size())};
        size_t at_max = 0;
        size_t at_zero = 0;
        size_t at_minus_zero = 0;
        const auto samples = static_cast<size_t>(spec.duration / spec.step);
        for (size_t s = 0; s < samples; ++s) {
            for (int m = 0; m < 2; ++m)
                kernel[m].synthesizeWithMode(s, noise[m], ar[m].data(),
                                             row[m].data(), modes[m]);
            for (size_t r = 0; r < row[0].size(); ++r) {
                ASSERT_EQ(std::bit_cast<uint64_t>(row[1][r]),
                          std::bit_cast<uint64_t>(row[0][r]))
                    << racks << " racks, sample " << s << " rack " << r;
                ASSERT_EQ(std::bit_cast<uint64_t>(ar[1][r]),
                          std::bit_cast<uint64_t>(ar[0][r]))
                    << racks << " racks, sample " << s << " rack " << r;
                at_max += row[0][r] == spec.rackMaxPower.value() ? 1 : 0;
                if (row[0][r] == 0.0)
                    ++(std::signbit(row[0][r]) ? at_minus_zero : at_zero);
            }
        }
        // The profiles must really reach both bounds and the -0.0 tie.
        if (racks >= 3) {
            EXPECT_GT(at_max, 0u) << racks << " racks";
            EXPECT_GT(at_zero, 0u) << racks << " racks";
            EXPECT_GT(at_minus_zero, 0u) << racks << " racks";
        }
    }
}

TEST(GeneratorDeathTest, RejectsBadLoadProfiles)
{
    TraceGenSpec explode = smallSpec();
    explode.profiles[1].noisePersistence = 1.2;
    EXPECT_EXIT(generateTraces(explode), testing::ExitedWithCode(1),
                "P2: noisePersistence 1.2 outside");
    TraceGenSpec flat = smallSpec();
    flat.profiles[0].noiseSigma = 0.0;
    EXPECT_EXIT(generateTraces(flat), testing::ExitedWithCode(1),
                "P1: noiseSigma 0 must be positive");
    TraceGenSpec nan_base = smallSpec();
    nan_base.profiles[2].baseMean = util::Watts(std::nan(""));
    EXPECT_EXIT(generateTraces(nan_base), testing::ExitedWithCode(1),
                "P3: baseMean nan is not finite");
    TraceGenSpec inf_amp = smallSpec();
    inf_amp.profiles[1].diurnalAmplitude =
        std::numeric_limits<double>::infinity();
    EXPECT_EXIT(generateTraces(inf_amp), testing::ExitedWithCode(1),
                "P2: diurnalAmplitude inf is not finite");
}

TEST(StreamingTraceDeathTest, RejectsBadLoadProfiles)
{
    StreamingTraceSpec explode;
    explode.base = smallSpec();
    explode.base.profiles[2].noisePersistence = -0.1;
    EXPECT_EXIT(StreamingTraceSource{explode},
                testing::ExitedWithCode(1),
                "P3: noisePersistence -0.1 outside");
    StreamingTraceSpec flat;
    flat.base = smallSpec();
    flat.base.profiles[1].noiseSigma = -0.02;
    EXPECT_EXIT(StreamingTraceSource{flat}, testing::ExitedWithCode(1),
                "P2: noiseSigma -0.02 must be positive");
}

} // namespace
} // namespace dcbatt::trace

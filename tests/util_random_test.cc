/**
 * @file
 * Statistical sanity tests for the Rng distributions. Tolerances are
 * sized for the fixed sample counts; the generator is deterministic,
 * so these never flake.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "util/random.h"
#include "util/random_internal.h"
#include "util/simd.h"
#include "util/stats.h"

namespace dcbatt::util {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    RunningStats s;
    for (int i = 0; i < 20000; ++i) {
        double x = rng.uniform(2.0, 6.0);
        ASSERT_GE(x, 2.0);
        ASSERT_LT(x, 6.0);
        s.add(x);
    }
    EXPECT_NEAR(s.mean(), 4.0, 0.05);
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t x = rng.uniformInt(1, 6);
        ASSERT_GE(x, 1);
        ASSERT_LE(x, 6);
        saw_lo |= (x == 1);
        saw_hi |= (x == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.exponential(45.0));
    EXPECT_NEAR(s.mean(), 45.0, 1.0);
    // Exponential: stddev == mean.
    EXPECT_NEAR(s.stddev(), 45.0, 2.0);
    EXPECT_GE(s.min(), 0.0);
}

TEST(RngDeathTest, ExponentialRejectsNonpositiveMean)
{
    Rng rng(1);
    EXPECT_DEATH(rng.exponential(0.0), "nonpositive");
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.normal(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, TruncatedNormalStaysInRange)
{
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
        double x = rng.truncatedNormal(1.0, 5.0, 0.5, 1.5);
        ASSERT_GE(x, 0.5);
        ASSERT_LE(x, 1.5);
    }
}

TEST(Rng, TruncatedNormalDegenerateRangeClamps)
{
    Rng rng(17);
    // Impossible-to-hit narrow band far from the mean: resampling
    // gives up and clamps the mean into range.
    double x = rng.truncatedNormal(100.0, 0.001, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ForkedStreamsIndependent)
{
    Rng parent(23);
    Rng child1 = parent.fork();
    Rng child2 = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (child1.uniform() == child2.uniform())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto original = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, original);
}

TEST(Rng, SubstreamSeedMatchesSubstream)
{
    for (uint64_t seed : {0ULL, 7ULL, 0xdeadbeefULL}) {
        Rng parent(seed);
        for (uint64_t index : {0ULL, 1ULL, 63ULL, 1000ULL}) {
            EXPECT_EQ(parent.substream(index).seed(),
                      Rng::substreamSeed(seed, index));
        }
    }
}

// ---------------------------------------------------------------------
// CachedSeedEngine must be a drop-in for std::mt19937_64: the raw
// uint64 stream and every distribution built on it have to match bit
// for bit, including past the cached first block (312 outputs) and
// across several twist generations.
// ---------------------------------------------------------------------

TEST(CachedSeedEngine, MatchesStdMt19937_64)
{
    for (uint64_t seed :
         {0ULL, 1ULL, 42ULL, 0xdeadbeefULL, 0x9e3779b97f4a7c15ULL}) {
        std::mt19937_64 reference(seed);
        CachedSeedEngine engine(seed);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(engine(), reference())
                << "seed " << seed << " draw " << i;
    }
}

TEST(CachedSeedEngine, SharedBlockStreamsAreIndependent)
{
    // Two engines on the same seed share the cached block but must
    // advance independently.
    CachedSeedEngine a(77), b(77);
    std::mt19937_64 reference(77);
    uint64_t first = reference();
    EXPECT_EQ(a(), first);
    for (int i = 0; i < 500; ++i)
        a();
    EXPECT_EQ(b(), first);
}

TEST(SeededStream, MatchesRngDistributions)
{
    for (uint64_t seed : {3ULL, 0xfeedULL}) {
        Rng rng(seed);
        SeededStream stream(seed);
        for (int i = 0; i < 200; ++i) {
            ASSERT_DOUBLE_EQ(stream.exponential(45.0),
                             rng.exponential(45.0));
            ASSERT_DOUBLE_EQ(stream.normal(10.0, 3.0),
                             rng.normal(10.0, 3.0));
            ASSERT_DOUBLE_EQ(
                stream.truncatedNormal(1.0, 5.0, 0.5, 1.5),
                rng.truncatedNormal(1.0, 5.0, 0.5, 1.5));
            ASSERT_DOUBLE_EQ(stream.uniform(2.0, 6.0),
                             rng.uniform(2.0, 6.0));
        }
    }
}

TEST(Mt64, MatchesStdMt19937_64)
{
    for (uint64_t seed :
         {0ULL, 1ULL, 42ULL, 0xdeadbeefULL, 0x9e3779b97f4a7c15ULL}) {
        std::mt19937_64 reference(seed);
        Mt64 engine(seed);
        // Single draws and bulk runs interleaved, across many blocks.
        std::vector<uint64_t> run(997);
        for (int round = 0; round < 20; ++round) {
            for (int i = 0; i < 101; ++i)
                ASSERT_EQ(engine(), reference()) << "seed " << seed;
            engine.fill(run.data(), run.size());
            for (uint64_t v : run)
                ASSERT_EQ(v, reference()) << "seed " << seed;
        }
    }
}

TEST(StandardNormalStream, BitIdenticalToRngNormal)
{
    // 5 seeds x 200k draws: a normal consumes ~2.5 engine outputs, so
    // each stream crosses ~1600 twist blocks. Compared as bits, not
    // within a ULP, with draws taken in runs of uneven length.
    const double scales[][2] = {{0.0, 1.0}, {0.0, 0.025}, {10.0, 3.0},
                                {-2.5, 1e-3}};
    const size_t runs[] = {1, 7, 301, 64, 2, 1000};
    for (uint64_t seed :
         {1ULL, 42ULL, 0xdeadbeefULL, 0x9e3779b97f4a7c15ULL, 20201017ULL}) {
        Rng rng(seed);
        Mt64 engine(seed);
        StandardNormalStream stream(engine);
        std::vector<double> z;
        size_t i = 0;
        for (size_t r = 0; i < 200000; ++r) {
            z.resize(runs[r % std::size(runs)]);
            stream.draw(z.data(), z.size());
            for (double v : z) {
                const double *ms = scales[i % 4];
                double expected = rng.normal(ms[0], ms[1]);
                double got = v * ms[1] + ms[0];
                ASSERT_EQ(std::bit_cast<uint64_t>(got),
                          std::bit_cast<uint64_t>(expected))
                    << "seed " << seed << " draw " << i;
                ++i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// AVX2 against the scalar reference, bit for bit. The engine and the
// polar passes take their SimdMode explicitly, so one process runs
// both paths whatever DCBATT_SIMD says.
// ---------------------------------------------------------------------

TEST(Mt64, BothModesMatchStdMt19937_64AcrossBlocks)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "CPU has no AVX2";
    // Whole blocks, and runs of 0-9 and 301 words that start reads at
    // every word offset of a block.
    constexpr size_t kRunSizes[] = {312, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 301};
    constexpr size_t kRuns = 1000 * std::size(kRunSizes);
    for (SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2}) {
        for (uint64_t seed :
             {0ULL, 1ULL, 0xdeadbeefULL, 20201017ULL, ~0ULL}) {
            std::mt19937_64 reference(seed);
            Mt64 engine(seed, mode);
            std::vector<uint64_t> run;
            for (size_t r = 0; r < kRuns; ++r) {
                run.resize(kRunSizes[r % std::size(kRunSizes)]);
                engine.fill(run.data(), run.size());
                for (size_t i = 0; i < run.size(); ++i)
                    ASSERT_EQ(run[i], reference())
                        << "seed " << seed << " run " << r << " word "
                        << i;
            }
        }
    }
}

TEST(CachedSeedEngine, BothModesMatchStdMt19937_64AcrossBlocks)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "CPU has no AVX2";
    // Seeds no other test uses, so each mode computes its own cached
    // first block.
    const uint64_t seeds[2][3] = {{101, 0x5eed0001ULL, 987654321ULL},
                                  {202, 0x5eed0002ULL, 123456789ULL}};
    const SimdMode modes[2] = {SimdMode::Scalar, SimdMode::Avx2};
    for (int m = 0; m < 2; ++m) {
        for (uint64_t seed : seeds[m]) {
            std::mt19937_64 reference(seed);
            CachedSeedEngine engine(seed, modes[m]);
            for (size_t i = 0; i < 312 * 1000; ++i)
                ASSERT_EQ(engine(), reference())
                    << "seed " << seed << " draw " << i;
        }
    }
}

/**
 * Replays fixed raw words. Once they run out it serves the accepted
 * pair (2^63, 0) forever and notes the overrun, so a fresh
 * std::normal_distribution always terminates.
 */
struct ReplayEngine
{
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type
    operator()()
    {
        if (pos < words.size())
            return words[pos++];
        overran = true;
        return (pos++ - words.size()) % 2 == 0 ? 1ULL << 63 : 0;
    }

    std::vector<uint64_t> words;
    size_t pos = 0;
    bool overran = false;
};

TEST(StandardNormalStream, PolarRunMatchesFreshDistributionOnEdgeWords)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "CPU has no AVX2";
    // Word 0 is canonical 0 (x = -1), UINT64_MAX is the largest
    // canonical below 1, and 2^63 is exactly 0.5 (x = 0). The pairs
    // cover r2 > 1 (rejected), r2 == 0 (rejected), r2 == 1 (accepted,
    // log 0 gives a -0.0 draw) and the extremes accepted.
    constexpr uint64_t kMax = ~0ULL;
    constexpr uint64_t kHalf = 1ULL << 63;
    const uint64_t edges[][2] = {
        {0, 0},       {kHalf, kHalf}, {0, kHalf},    {kMax, kHalf},
        {kMax, kMax}, {kHalf, kMax},  {0, kMax},     {kMax, 0},
        {kHalf, 0},   {1, kHalf},     {kHalf - 1, kHalf + 1},
    };
    Mt64 filler(77);
    for (size_t pairs : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                         size_t{4}, size_t{5}, size_t{6}, size_t{7},
                         size_t{8}, size_t{9}, size_t{61},
                         StandardNormalStream::kRunPairs}) {
        for (size_t offset = 0; offset < 8; ++offset) {
            // Random pairs with the edge pairs spliced in from
            // @p offset on, so they land in every vector lane.
            std::vector<uint64_t> raw(2 * pairs);
            filler.fill(raw.data(), raw.size());
            for (size_t e = 0; e < std::size(edges); ++e) {
                size_t k = offset + e;
                if (k >= pairs)
                    break;
                raw[2 * k] = edges[e][0];
                raw[2 * k + 1] = edges[e][1];
            }

            // Mean -0.0 adds nothing to any draw, -0.0 included, so
            // the distribution returns the raw polar value.
            ReplayEngine replay{raw};
            std::vector<double> expected;
            for (;;) {
                double z = std::normal_distribution<double>(-0.0, 1.0)(
                    replay);
                if (replay.overran)
                    break;
                expected.push_back(z);
            }

            for (SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2}) {
                std::vector<double> got(pairs);
                size_t n = internal::polarNormals(raw.data(), pairs,
                                                  got.data(), mode);
                ASSERT_EQ(n, expected.size())
                    << "pairs " << pairs << " offset " << offset;
                for (size_t i = 0; i < n; ++i)
                    ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                              std::bit_cast<uint64_t>(expected[i]))
                        << "pairs " << pairs << " offset " << offset
                        << " draw " << i
                        << (mode == SimdMode::Avx2 ? " avx2" : " scalar");
            }
        }
    }
}

TEST(StandardNormalStream, BothModesMatchRngNormal)
{
    if (!cpuHasAvx2())
        GTEST_SKIP() << "CPU has no AVX2";
    for (SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2}) {
        for (uint64_t seed : {5ULL, 20201017ULL}) {
            Rng rng(seed);
            Mt64 engine(seed, mode);
            StandardNormalStream stream(engine);
            // 200 runs of 301 draws, each followed by runs of 0-9.
            const size_t runs[] = {301, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
            std::vector<double> z;
            for (size_t run = 0; run < 200 * std::size(runs); ++run) {
                z.resize(runs[run % std::size(runs)]);
                stream.draw(z.data(), z.size());
                for (double v : z) {
                    double expected = rng.normal(0.0, 1.0);
                    ASSERT_EQ(std::bit_cast<uint64_t>(v * 1.0 + 0.0),
                              std::bit_cast<uint64_t>(expected))
                        << "seed " << seed;
                }
            }
        }
    }
}

TEST(SeededStream, NextRawMirrorsFork)
{
    // SeededStream(parent.nextRaw()) must equal parent.fork(): that is
    // the contract the AOR generator's per-process streams rely on.
    Rng rng_parent(91);
    SeededStream stream_parent(91);
    for (int p = 0; p < 20; ++p) {
        Rng rng_child = rng_parent.fork();
        SeededStream stream_child(stream_parent.nextRaw());
        for (int i = 0; i < 50; ++i)
            ASSERT_DOUBLE_EQ(stream_child.exponential(100.0),
                             rng_child.exponential(100.0));
    }
}

TEST(SimdSetting, AcceptedValues)
{
    for (bool usable : {false, true}) {
        const SimdMode best = usable ? SimdMode::Avx2 : SimdMode::Scalar;
        EXPECT_EQ(simdModeFor(nullptr, usable), best);
        EXPECT_EQ(simdModeFor("", usable), best);
        EXPECT_EQ(simdModeFor("auto", usable), best);
        EXPECT_EQ(simdModeFor("avx2", usable), best);
        EXPECT_EQ(simdModeFor("off", usable), SimdMode::Scalar);
        EXPECT_EQ(simdModeFor("scalar", usable), SimdMode::Scalar);
    }
}

TEST(SimdSettingDeathTest, RejectsOtherValues)
{
    for (const char *bad : {"0", "on", "AVX2", "avx512", "sse", " auto"}) {
        EXPECT_EXIT(simdModeFor(bad, true), testing::ExitedWithCode(1),
                    std::string("DCBATT_SIMD=") + bad
                        + ": expected one of off.scalar.avx2.auto")
            << bad;
    }
}

} // namespace
} // namespace dcbatt::util

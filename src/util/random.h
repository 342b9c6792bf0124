/**
 * @file
 * Deterministic random-number generation for the simulators.
 *
 * Every stochastic component takes an explicit Rng so experiments are
 * reproducible from a seed. The distributions offered are exactly those
 * the paper's models need: uniform, exponential (failure/repair/open-
 * transition processes), and normal (annual-maintenance scheduling and
 * trace noise).
 */

#ifndef DCBATT_UTIL_RANDOM_H_
#define DCBATT_UTIL_RANDOM_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "util/simd.h"

namespace dcbatt::util {

/** MT19937-64 tempering of a word or of each util/lanes.h lane. */
template <typename V>
V
mt64Temper(V y)
{
    y ^= (y >> 29) & uint64_t{0x5555555555555555};
    y ^= (y << 17) & uint64_t{0x71D67FFFEDA60000};
    y ^= (y << 37) & uint64_t{0xFFF7EEE000000000};
    y ^= y >> 43;
    return y;
}

/**
 * Drop-in mt19937_64 facade with O(1) construction.
 *
 * std::mt19937_64 pays ~2 µs per construction (312-word seeding plus
 * the first twist), which dominates workloads that build thousands of
 * short-lived streams — the sharded AOR generator constructs one per
 * (shard, failure process). This engine produces the exact same output
 * sequence as std::mt19937_64{seed} (pinned by a differential test)
 * but serves the first 312 outputs from a per-seed cache shared by
 * every engine with that seed; only streams that outlive the first
 * block copy any state. The cache is pure memoization of a pure
 * function of the seed, so determinism is unaffected; it is
 * thread-local, so worker threads never contend.
 */
class CachedSeedEngine
{
  public:
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** @p mode picks the twist's instruction set, never its output. */
    explicit CachedSeedEngine(uint64_t seed,
                              SimdMode mode = activeSimdMode())
        : block_(blockForSeed(seed, mode)), mode_(mode)
    {
    }

    result_type
    operator()()
    {
        if (idx_ == kStateWords)
            advanceBlock();
        if (materialized_)
            return mt64Temper(mt_[idx_++]);
        return block_->out[idx_++];
    }

  private:
    static constexpr size_t kStateWords = 312;

    struct Block
    {
        std::array<uint64_t, kStateWords> out;   // tempered outputs
        std::array<uint64_t, kStateWords> state; // post-twist state
    };

    static std::shared_ptr<const Block> blockForSeed(uint64_t seed,
                                                     SimdMode mode);

    void advanceBlock();

    std::shared_ptr<const Block> block_;
    size_t idx_ = 0;
    SimdMode mode_;
    bool materialized_ = false;
    std::array<uint64_t, kStateWords> mt_; // used once materialized_
};

/**
 * MT19937-64 with block output: the exact sequence of
 * std::mt19937_64{seed} (pinned by a differential test), generated 312
 * outputs at a time by a branch-free twist and tempering lane pass
 * (random_internal.h, util/lanes.h), four words per vector under AVX2.
 * The libstdc++ engine branches on a random bit per word, which costs
 * a mispredict on half the words; the block form also lets consumers
 * take runs of outputs at once (fill()).
 */
class Mt64
{
  public:
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /**
     * @p mode picks the instruction set of the block passes here and
     * in a StandardNormalStream over this engine; it never changes
     * the output.
     */
    explicit Mt64(uint64_t seed, SimdMode mode = activeSimdMode());

    SimdMode mode() const { return mode_; }

    result_type
    operator()()
    {
        if (idx_ == kStateWords)
            refill();
        return out_[idx_++];
    }

    /** The next @p n outputs, in order, into @p out. */
    void fill(uint64_t *out, size_t n);

  private:
    static constexpr size_t kStateWords = 312;

    /** Twist the state and temper the next block of outputs. */
    void refill();

    std::array<uint64_t, kStateWords> state_;
    std::array<uint64_t, kStateWords> out_;
    size_t idx_ = kStateWords;
    SimdMode mode_;
};

/**
 * Standard-normal draws in bulk, bit-identical to drawing
 * std::normal_distribution<double>{0, 1} afresh per value on the same
 * engine (libstdc++'s Marsaglia polar method over
 * generate_canonical<double, 53>, the second value of each pair
 * discarded): Rng::normal(mean, sd) is draw() * sd + mean, bit for
 * bit, in the same order (pinned by util_random_test).
 *
 * Each polar attempt consumes one fresh pair of engine outputs, so the
 * attempts are the consecutive output pairs of the stream. The stream
 * evaluates a run of pairs at once, with no branch on acceptance, and
 * keeps the accepted values for later calls: it reads ahead of what it
 * has returned, so @p engine belongs to the stream from construction
 * on and must not be drawn from directly afterwards. The candidate,
 * compaction and scale lane passes run at the engine's SimdMode; the
 * libm log of each accepted attempt is scalar in both modes.
 */
class StandardNormalStream
{
  public:
    /** Polar attempts evaluated per run. */
    static constexpr size_t kRunPairs = 128;

    explicit StandardNormalStream(Mt64 &engine) : engine_(&engine) {}

    /** The next @p n draws, in stream order, into @p out. */
    void draw(double *out, size_t n);

  private:
    /** Evaluate one run of polar attempts into ready_. */
    void refill();

    Mt64 *engine_;
    /** Accepted draws of the last run: ready_[next_, readyCount_). */
    std::array<double, kRunPairs> ready_;
    size_t readyCount_ = 0;
    size_t next_ = 0;
};

/** Seeded pseudo-random generator with the distributions dcbatt uses. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : engine_(seed), seed_(seed)
    {
    }

    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);
    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformInt(int64_t lo, int64_t hi);
    /** Exponential with the given mean (not rate). */
    double exponential(double mean);
    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);
    /**
     * Normal truncated to [lo, hi] by resampling (up to a bounded
     * number of attempts, then clamped). Used for annual-maintenance
     * intervals, which must stay positive.
     */
    double truncatedNormal(double mean, double stddev, double lo,
                           double hi);
    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /** Fork an independent stream (stable given the parent's state). */
    Rng fork();

    /**
     * Counter-based child stream @p index: the child seed is a
     * SplitMix64 mix of (seed, index) only, so — unlike fork() — the
     * result is independent of how many draws the parent has made.
     * This is the substream scheme the parallel shards use: shard i
     * of a simulation seeded s always sees Rng(s).substream(i),
     * regardless of generation order or thread count.
     */
    Rng substream(uint64_t index) const;

    /**
     * The seed substream(index) would construct its child with — a
     * pure function of (seed, index), exposed so callers can feed it
     * to a SeededStream without building the intermediate Rng.
     */
    static uint64_t substreamSeed(uint64_t seed, uint64_t index);

    /** The seed this generator was constructed with. */
    uint64_t seed() const { return seed_; }

    /** Shuffle a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        std::shuffle(v.begin(), v.end(), engine_);
    }

    Mt64 &engine() { return engine_; }

  private:
    Mt64 engine_;
    uint64_t seed_ = 0;
};

/**
 * Forward-only distribution stream over a CachedSeedEngine — the
 * cheap-construction path for the thousands of short-lived per-process
 * streams the sharded AOR generator creates. Draw-for-draw
 * bit-identical to Rng(seed) for the distributions it offers (pinned
 * by util_random_test), so swapping one in never changes a timeline.
 */
class SeededStream
{
  public:
    explicit SeededStream(uint64_t seed) : engine_(seed) {}

    /** Uniform double in [lo, hi); matches Rng::uniform. */
    double uniform(double lo, double hi);
    /** Exponential with the given mean; matches Rng::exponential. */
    double exponential(double mean);
    /** Normal draw; matches Rng::normal. */
    double normal(double mean, double stddev);
    /** Truncated normal; matches Rng::truncatedNormal. */
    double truncatedNormal(double mean, double stddev, double lo,
                           double hi);

    /**
     * Next raw engine draw — what Rng::fork() seeds its child with,
     * so SeededStream(parent.nextRaw()) mirrors parent.fork().
     */
    uint64_t nextRaw() { return engine_(); }

  private:
    CachedSeedEngine engine_;
};

} // namespace dcbatt::util

#endif // DCBATT_UTIL_RANDOM_H_

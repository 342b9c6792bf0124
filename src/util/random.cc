#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/logging.h"
#include "util/random_internal.h"

namespace dcbatt::util {

namespace {

// ---------------------------------------------------------------------
// Shared distribution bodies. Rng and SeededStream must produce the
// same doubles from the same underlying uint64 stream, so both call
// through these templates — the expressions (and therefore the draw
// counts and rounding) cannot drift apart.
// ---------------------------------------------------------------------

template <typename Engine>
double
drawUniform(Engine &engine, double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(engine);
}

template <typename Engine>
double
drawExponential(Engine &engine, double mean)
{
    if (mean <= 0.0)
        panic(strf("Rng::exponential: nonpositive mean %g", mean));
    return std::exponential_distribution<double>(1.0 / mean)(engine);
}

template <typename Engine>
double
drawNormal(Engine &engine, double mean, double stddev)
{
    // A fresh distribution per draw: no carried Box-Muller state, so
    // the result is a pure function of the engine stream.
    return std::normal_distribution<double>(mean, stddev)(engine);
}

template <typename Engine>
double
drawTruncatedNormal(Engine &engine, double mean, double stddev,
                    double lo, double hi)
{
    if (lo > hi)
        panic("Rng::truncatedNormal: lo > hi");
    for (int attempt = 0; attempt < 64; ++attempt) {
        double x = drawNormal(engine, mean, stddev);
        if (x >= lo && x <= hi)
            return x;
    }
    return std::clamp(mean, lo, hi);
}

// ---------------------------------------------------------------------
// MT19937-64 core (matches std::mt19937_64's parameters; the
// CachedSeedEngine and Mt64 differential tests pin equality). The
// twist's lane pass is in random_internal.h.
// ---------------------------------------------------------------------

using internal::kMtM;
using internal::kMtN;

void
mtSeedState(uint64_t seed, std::array<uint64_t, kMtN> &mt)
{
    mt[0] = seed;
    for (size_t i = 1; i < kMtN; ++i)
        mt[i] = 6364136223846793005ULL * (mt[i - 1] ^ (mt[i - 1] >> 62))
            + i;
}

/**
 * Twist @p mt in place and, if @p out is given, temper it there. The
 * twist is split at the two wrap points of its index arithmetic, so
 * no word needs a modulo or a branch: words before kMtN - kMtM read
 * far words not yet twisted, the words after read far words already
 * twisted, and the last word's next word is mt[0].
 */
void
mtTwist(std::array<uint64_t, kMtN> &mt, uint64_t *out, SimdMode mode)
{
    uint64_t *words = mt.data();
    constexpr auto kAhead = static_cast<std::ptrdiff_t>(kMtM);
    constexpr auto kBehind = kAhead - static_cast<std::ptrdiff_t>(kMtN);
    const size_t wrap = runLanes(mode, 0, [&]<int W>(size_t i) {
        return internal::mtTwistSpan<W>(words, i, kMtN - kMtM, kAhead,
                                        out);
    });
    runLanes(mode, wrap, [&]<int W>(size_t i) {
        return internal::mtTwistSpan<W>(words, i, kMtN - 1, kBehind, out);
    });
    constexpr size_t kLast = kMtN - 1;
    words[kLast] =
        internal::mtTwistWord(words[kLast], words[0], words[kMtM - 1]);
    if (out != nullptr)
        out[kLast] = mt64Temper(words[kLast]);
}

} // namespace

Mt64::Mt64(uint64_t seed, SimdMode mode) : mode_(mode)
{
    mtSeedState(seed, state_);
}

void
Mt64::refill()
{
    mtTwist(state_, out_.data(), mode_);
    idx_ = 0;
}

void
Mt64::fill(uint64_t *out, size_t n)
{
    while (n > 0) {
        if (idx_ == kStateWords)
            refill();
        size_t take = std::min(n, kStateWords - idx_);
        std::copy_n(out_.data() + idx_, take, out);
        idx_ += take;
        out += take;
        n -= take;
    }
}

void
StandardNormalStream::draw(double *out, size_t n)
{
    while (n > 0) {
        if (next_ == readyCount_)
            refill();
        size_t take = std::min(n, readyCount_ - next_);
        std::copy_n(ready_.data() + next_, take, out);
        next_ += take;
        out += take;
        n -= take;
    }
}

void
StandardNormalStream::refill()
{
    std::array<uint64_t, 2 * kRunPairs> raw;
    engine_->fill(raw.data(), raw.size());
    readyCount_ = internal::polarNormals(raw.data(), kRunPairs,
                                         ready_.data(), engine_->mode());
    next_ = 0;
}

namespace internal {

size_t
polarNormals(const uint64_t *raw, size_t pairs, double *out,
             SimdMode mode)
{
    // One run of polar attempts, in passes: the candidates, compacted
    // in order without a branch, then the scalar libm log and the scale
    // for the accepted ones only.
    std::array<double, StandardNormalStream::kRunPairs> y;
    std::array<double, StandardNormalStream::kRunPairs> r2;
    size_t accepted = 0;
    runLanes(mode, 0, [&]<int W>(size_t k) {
        return polarAccept<W>(raw, k, pairs, y.data(), r2.data(),
                              &accepted);
    });
    for (size_t k = 0; k < accepted; ++k)
        out[k] = std::log(r2[k]);
    runLanes(mode, 0, [&]<int W>(size_t k) {
        return polarScale<W>(k, accepted, y.data(), r2.data(), out);
    });
    return accepted;
}

} // namespace internal

std::shared_ptr<const CachedSeedEngine::Block>
CachedSeedEngine::blockForSeed(uint64_t seed, SimdMode mode)
{
    // Pure memoization of seed -> first output block. Thread-local so
    // pool workers never contend; shard results stay a function of the
    // seed alone, never of which thread computed them.
    thread_local std::unordered_map<uint64_t,
                                    std::shared_ptr<const Block>>
        cache;
    // detlint note: the map is lookup-only memoization, never
    // iterated, so its ordering cannot leak into results.
    if (auto it = cache.find(seed); it != cache.end())
        return it->second;
    if (cache.size() >= 1024)
        cache.clear(); // engines hold shared_ptrs; eviction is safe
    auto block = std::make_shared<Block>();
    mtSeedState(seed, block->state);
    mtTwist(block->state, block->out.data(), mode);
    cache.emplace(seed, block);
    return block;
}

void
CachedSeedEngine::advanceBlock()
{
    if (!materialized_) {
        mt_ = block_->state;
        materialized_ = true;
    }
    mtTwist(mt_, nullptr, mode_);
    idx_ = 0;
}

double
Rng::uniform()
{
    return drawUniform(engine_, 0.0, 1.0);
}

double
Rng::uniform(double lo, double hi)
{
    return drawUniform(engine_, lo, hi);
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
}

double
Rng::exponential(double mean)
{
    return drawExponential(engine_, mean);
}

double
Rng::normal(double mean, double stddev)
{
    return drawNormal(engine_, mean, stddev);
}

double
Rng::truncatedNormal(double mean, double stddev, double lo, double hi)
{
    return drawTruncatedNormal(engine_, mean, stddev, lo, hi);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    // Derive a child seed from the parent stream so that forked
    // generators are independent but still fully determined by the
    // original seed.
    return Rng(engine_());
}

namespace {

/** SplitMix64 finalizer (Steele, Lea & Flood; public domain). */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
Rng::substreamSeed(uint64_t seed, uint64_t index)
{
    // Two SplitMix64 rounds keyed on (seed, index); a pure function of
    // the construction seed and the counter.
    return splitmix64(splitmix64(seed) ^ splitmix64(index));
}

Rng
Rng::substream(uint64_t index) const
{
    // Never touches engine_, so the mapping is independent of how many
    // draws the parent has made.
    return Rng(substreamSeed(seed_, index));
}

double
SeededStream::uniform(double lo, double hi)
{
    return drawUniform(engine_, lo, hi);
}

double
SeededStream::exponential(double mean)
{
    return drawExponential(engine_, mean);
}

double
SeededStream::normal(double mean, double stddev)
{
    return drawNormal(engine_, mean, stddev);
}

double
SeededStream::truncatedNormal(double mean, double stddev, double lo,
                              double hi)
{
    return drawTruncatedNormal(engine_, mean, stddev, lo, hi);
}

} // namespace dcbatt::util

/**
 * @file
 * The lane passes of the MT19937-64 engine and the polar normal stream
 * (util/lanes.h): util/random.cc runs them, random_avx2.cc holds their
 * W = 4 instances. Nothing outside src/util and its tests includes
 * this.
 */

#ifndef DCBATT_UTIL_RANDOM_INTERNAL_H_
#define DCBATT_UTIL_RANDOM_INTERNAL_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/lanes.h"
#include "util/random.h"

namespace dcbatt::util::internal {

// MT19937-64 parameters (std::mt19937_64's).
constexpr std::size_t kMtN = 312;
constexpr std::size_t kMtM = 156;

/** One word of the twist per lane, the y & 1 select done by a mask. */
template <typename V>
V
mtTwistWord(V word, V next, V far)
{
    const V y = (word & uint64_t{0xFFFFFFFF80000000})
        | (next & uint64_t{0x7FFFFFFF});
    const V select = uint64_t{0} - (y & uint64_t{1});
    return far ^ (y >> 1) ^ (select & uint64_t{0xB5026F5AA96619E9});
}

/**
 * Twist words [i, end) of @p mt in place, word j reading mt[j + 1] and
 * mt[j + far], and temper them into @p out unless it is null. A step
 * loads before it stores, so it reads what the sequential recurrence
 * reads while the far words lie wholly before or after the step.
 */
template <int W>
std::size_t
mtTwistSpan(uint64_t *mt, std::size_t i, std::size_t end,
            std::ptrdiff_t far, uint64_t *out)
{
    using L = Lanes<W>;
    for (; i + W <= end; i += W) {
        const typename L::U r = mtTwistWord(
            L::load(mt + i), L::load(mt + i + 1), L::load(mt + i + far));
        L::store(mt + i, r);
        if (out != nullptr)
            L::store(out + i, mt64Temper(r));
    }
    return i;
}

/**
 * generate_canonical<double, 53> on each 64-bit lane: the word rounded
 * to double, scaled by 2^-64, and kept below 1. The rounding splits
 * the word into halves that convert exactly through the exponent-bias
 * trick, so one rounding of their exact sum equals the direct
 * conversion without its branch on the top bit.
 */
template <int W>
typename Lanes<W>::D
canonical(typename Lanes<W>::U u)
{
    using D = typename Lanes<W>::D;
    const D hi = std::bit_cast<D>((u >> 32) | uint64_t{0x4530000000000000})
        - 0x1p84;
    const D lo = std::bit_cast<D>((u & uint64_t{0xFFFFFFFF})
                                  | uint64_t{0x4330000000000000})
        - 0x1p52;
    const D c = (hi + lo) / 0x1p64;
    const D below_one = Lanes<W>::splat(0x1.fffffffffffffp-1);
    return below_one < c ? below_one : c; // std::min(c, below_one)
}

/**
 * The polar candidates and their compaction over attempts [k, pairs):
 * attempt k reads raw words 2k (x) and 2k+1 (y); unless r2 = x * x +
 * y * y is > 1 or == 0, its y and r2 are appended to @p y and @p r2 at
 * *accepted, which it advances. A step stores W lanes there; those
 * past the accepted ones are overwritten or ignored, and *accepted
 * <= k keeps them inside the first k + W entries.
 */
template <int W>
std::size_t
polarAccept(const uint64_t *raw, std::size_t k, std::size_t pairs,
            double *y, double *r2, std::size_t *accepted)
{
    using L = Lanes<W>;
    std::size_t n = *accepted;
    for (; k + W <= pairs; k += W) {
        typename L::U x_words;
        typename L::U y_words;
        L::deinterleave(L::load(raw + 2 * k), L::load(raw + 2 * k + W),
                        x_words, y_words);
        const typename L::D xs = 2.0 * canonical<W>(x_words) - 1.0;
        const typename L::D ys = 2.0 * canonical<W>(y_words) - 1.0;
        const typename L::D sum = xs * xs + ys * ys;
        const unsigned rejected =
            L::movemask(sum > 1.0) | L::movemask(sum == 0.0);
        const unsigned keep = ~rejected & ((1U << W) - 1);
        L::store(y + n, L::compress(ys, keep));
        L::store(r2 + n, L::compress(sum, keep));
        n += static_cast<std::size_t>(__builtin_popcount(keep));
    }
    *accepted = n;
    return k;
}

/**
 * The polar scale over accepted attempts [k, n): ln r2 in @p value
 * becomes y * sqrt(-2 * ln r2 / r2).
 */
template <int W>
std::size_t
polarScale(std::size_t k, std::size_t n, const double *y,
           const double *r2, double *value)
{
    using L = Lanes<W>;
    for (; k + W <= n; k += W) {
        const typename L::D ratio = -2.0 * L::load(value + k)
            / L::load(r2 + k);
        L::store(value + k, L::load(y + k) * L::sqrt(ratio));
    }
    return k;
}

#ifdef DCBATT_HAVE_AVX2_TU
extern template std::size_t mtTwistSpan<4>(uint64_t *, std::size_t,
                                           std::size_t, std::ptrdiff_t,
                                           uint64_t *);
extern template std::size_t polarAccept<4>(const uint64_t *, std::size_t,
                                           std::size_t, double *,
                                           double *, std::size_t *);
extern template std::size_t polarScale<4>(std::size_t, std::size_t,
                                          const double *, const double *,
                                          double *);
#endif

/**
 * One run of Marsaglia polar attempts over @p pairs (at most
 * StandardNormalStream::kRunPairs) consecutive raw word pairs: writes
 * the accepted draws to @p out in order and returns their count. Draw
 * k is exactly what a fresh std::normal_distribution<double>{0, 1}
 * returns when its attempts read the same words. @p mode picks the
 * lane width of every pass but the log, which stays scalar libm.
 */
std::size_t polarNormals(const uint64_t *raw, std::size_t pairs,
                         double *out, SimdMode mode);

} // namespace dcbatt::util::internal

#endif // DCBATT_UTIL_RANDOM_INTERNAL_H_

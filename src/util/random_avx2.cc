/**
 * @file
 * AVX2 bodies of the MT19937-64 engine and the polar normal stream.
 * This translation unit is compiled with -mavx2 -ffp-contract=off:
 * every arithmetic _mm256 operation below maps onto one scalar
 * operation of util/random.cc in the same operand order (integer
 * shift, and, or, xor, sub; double mul, div, add, sub, sqrt;
 * compare-and-blend for std::min), and the in-order compaction of
 * accepted attempts is a permutation, so the results are
 * bit-identical. The libm log of each accepted attempt stays in the
 * scalar code.
 */

#include "util/random_internal.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <array>

#include "util/random.h"

namespace dcbatt::util::internal {

namespace {

/** mt64Temper on four words. */
inline __m256i
temper4(__m256i y)
{
    y = _mm256_xor_si256(
        y, _mm256_and_si256(_mm256_srli_epi64(y, 29),
                            _mm256_set1_epi64x(0x5555555555555555LL)));
    y = _mm256_xor_si256(
        y, _mm256_and_si256(_mm256_slli_epi64(y, 17),
                            _mm256_set1_epi64x(0x71D67FFFEDA60000LL)));
    y = _mm256_xor_si256(
        y, _mm256_and_si256(
               _mm256_slli_epi64(y, 37),
               _mm256_set1_epi64x(static_cast<long long>(
                   0xFFF7EEE000000000ULL))));
    return _mm256_xor_si256(y, _mm256_srli_epi64(y, 43));
}

/** mtTwistWord on words i..i+3, reading the far words at @p far. */
inline void
twist4(uint64_t *mt, std::size_t i, const uint64_t *far, uint64_t *out)
{
    const __m256i upper =
        _mm256_set1_epi64x(static_cast<long long>(kMtUpperMask));
    const __m256i lower =
        _mm256_set1_epi64x(static_cast<long long>(kMtLowerMask));
    const __m256i matrix =
        _mm256_set1_epi64x(static_cast<long long>(kMtMatrixA));
    const __m256i one = _mm256_set1_epi64x(1);
    auto *word_p = reinterpret_cast<__m256i *>(mt + i);
    __m256i word = _mm256_loadu_si256(word_p);
    __m256i next =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(mt + i + 1));
    __m256i y = _mm256_or_si256(_mm256_and_si256(word, upper),
                                _mm256_and_si256(next, lower));
    __m256i select = _mm256_and_si256(
        _mm256_sub_epi64(_mm256_setzero_si256(),
                         _mm256_and_si256(y, one)),
        matrix);
    __m256i r = _mm256_xor_si256(
        _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(far)),
            _mm256_srli_epi64(y, 1)),
        select);
    _mm256_storeu_si256(word_p, r);
    if (out != nullptr)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            temper4(r));
}

/**
 * generate_canonical<double, 53> on four words: util/random.cc's
 * canonical(), with its std::min(c, max) as (max < c) ? max : c. The
 * division by 2^64 is a multiplication by 2^-64: scaling by a power of
 * two is exact here, so both give the same double (and the compiler
 * makes the same substitution in the scalar code).
 */
inline __m256d
canonical4(__m256i u)
{
    const __m256d hi = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_srli_epi64(u, 32),
            _mm256_set1_epi64x(0x4530000000000000LL))),
        _mm256_set1_pd(0x1p84));
    const __m256d lo = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            _mm256_and_si256(u, _mm256_set1_epi64x(0xFFFFFFFFLL)),
            _mm256_set1_epi64x(0x4330000000000000LL))),
        _mm256_set1_pd(0x1p52));
    const __m256d c =
        _mm256_mul_pd(_mm256_add_pd(hi, lo), _mm256_set1_pd(0x1p-64));
    const __m256d below_one = _mm256_set1_pd(0x1.fffffffffffffp-1);
    return _mm256_blendv_pd(c, below_one,
                            _mm256_cmp_pd(below_one, c, _CMP_LT_OQ));
}

/** 2 * canonical(u) - 1 on four words. */
inline __m256d
signedUnit4(const uint64_t *raw)
{
    __m256d c = canonical4(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(raw)));
    return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), c),
                         _mm256_set1_pd(1.0));
}

/** The doubles of @p v picked by the vpermd indices @p perm. */
inline __m256d
compress4(__m256d v, __m256i perm)
{
    return _mm256_castsi256_pd(
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), perm));
}

} // namespace

void
mtTwistAvx2(uint64_t *mt, uint64_t *out)
{
    // The scalar twist's two wrap points, four words at a time. Each
    // vector loads its next and far words before storing, and the far
    // words of the second half are first-half words already twisted,
    // exactly as the sequential recurrence reads them.
    std::size_t i = 0;
    for (; i < kMtN - kMtM; i += 4)
        twist4(mt, i, mt + i + kMtM, out);
    for (; i + 4 < kMtN; i += 4)
        twist4(mt, i, mt + i + kMtM - kMtN, out);
    for (; i < kMtN - 1; ++i)
        mt[i] = mtTwistWord(mt[i], mt[i + 1], mt[i + kMtM - kMtN]);
    mt[kMtN - 1] = mtTwistWord(mt[kMtN - 1], mt[0], mt[kMtM - 1]);
    if (out != nullptr) {
        for (i = kMtN - 4; i < kMtN; ++i)
            out[i] = mt64Temper(mt[i]);
    }
}

std::size_t
polarAcceptAvx2(const uint64_t *raw, std::size_t pairs, double *y,
                double *r2, std::size_t *accepted)
{
    // vpermd indices that move the accepted doubles of a 4-bit mask
    // to the front, in lane order: the branch-free compaction of the
    // scalar pass, four attempts at a time.
    static constexpr auto kCompress = [] {
        std::array<std::array<int, 8>, 16> table{};
        for (int mask = 0; mask < 16; ++mask) {
            int out = 0;
            for (int lane = 0; lane < 4; ++lane) {
                if ((mask >> lane) & 1) {
                    table[mask][2 * out] = 2 * lane;
                    table[mask][2 * out + 1] = 2 * lane + 1;
                    ++out;
                }
            }
        }
        return table;
    }();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d zero = _mm256_setzero_pd();
    std::size_t n = *accepted;
    std::size_t k = 0;
    for (; k + 4 <= pairs; k += 4) {
        // Words (x0 y0 x1 y1) and (x2 y2 x3 y3); the unpacks give the
        // attempts in lane order (0 2 1 3), restored after r2.
        __m256d a = signedUnit4(raw + 2 * k);
        __m256d b = signedUnit4(raw + 2 * k + 4);
        __m256d xs = _mm256_unpacklo_pd(a, b);
        __m256d ys = _mm256_unpackhi_pd(a, b);
        __m256d sum = _mm256_add_pd(_mm256_mul_pd(xs, xs),
                                    _mm256_mul_pd(ys, ys));
        constexpr int kInOrder = _MM_SHUFFLE(3, 1, 2, 0);
        ys = _mm256_permute4x64_pd(ys, kInOrder);
        sum = _mm256_permute4x64_pd(sum, kInOrder);
        // Rejected: r2 > 1.0 || r2 == 0.0 (both false on NaN, as in
        // the scalar test).
        __m256d reject =
            _mm256_or_pd(_mm256_cmp_pd(sum, one, _CMP_GT_OQ),
                         _mm256_cmp_pd(sum, zero, _CMP_EQ_OQ));
        const int mask = ~_mm256_movemask_pd(reject) & 0xF;
        const __m256i perm = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(kCompress[mask].data()));
        // The stores write four lanes from n on; those past the
        // accepted ones are overwritten by later attempts or ignored.
        // n <= k, so they stay inside the first k + 4 <= pairs entries.
        _mm256_storeu_pd(y + n, compress4(ys, perm));
        _mm256_storeu_pd(r2 + n, compress4(sum, perm));
        n += static_cast<std::size_t>(
            __builtin_popcount(static_cast<unsigned>(mask)));
    }
    *accepted = n;
    return k;
}

std::size_t
polarScaleAvx2(std::size_t n, const double *y, const double *r2,
               double *value)
{
    const __m256d minus_two = _mm256_set1_pd(-2.0);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256d ratio =
            _mm256_div_pd(_mm256_mul_pd(minus_two, _mm256_loadu_pd(value + k)),
                          _mm256_loadu_pd(r2 + k));
        _mm256_storeu_pd(value + k,
                         _mm256_mul_pd(_mm256_loadu_pd(y + k),
                                       _mm256_sqrt_pd(ratio)));
    }
    return k;
}

} // namespace dcbatt::util::internal

#else // !x86-64

namespace dcbatt::util::internal {

// Never dispatched to off x86-64 (util::activeSimdMode() is never
// Avx2 there); the symbols exist so the dispatch code links unchanged.
void
mtTwistAvx2(uint64_t *, uint64_t *)
{
}

std::size_t
polarAcceptAvx2(const uint64_t *, std::size_t, double *, double *,
                std::size_t *)
{
    return 0;
}

std::size_t
polarScaleAvx2(std::size_t, const double *, const double *, double *)
{
    return 0;
}

} // namespace dcbatt::util::internal

#endif

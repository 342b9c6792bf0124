/**
 * @file
 * Internal seam between util/random.cc and its AVX2 translation unit
 * (random_avx2.cc, compiled with -mavx2 -ffp-contract=off; see
 * src/CMakeLists.txt). Nothing outside src/util includes this.
 */

#ifndef DCBATT_UTIL_RANDOM_INTERNAL_H_
#define DCBATT_UTIL_RANDOM_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace dcbatt::util::internal {

// MT19937-64 parameters (std::mt19937_64's).
constexpr std::size_t kMtN = 312;
constexpr std::size_t kMtM = 156;
constexpr uint64_t kMtMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kMtUpperMask = 0xFFFFFFFF80000000ULL;
constexpr uint64_t kMtLowerMask = 0x7FFFFFFFULL;

/** One word of the twist, with the y & 1 select done by a mask. */
inline uint64_t
mtTwistWord(uint64_t word, uint64_t next, uint64_t far)
{
    uint64_t y = (word & kMtUpperMask) | (next & kMtLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMtMatrixA);
}

/**
 * One run of Marsaglia polar attempts over @p pairs (at most
 * StandardNormalStream::kRunPairs) consecutive raw word pairs: writes
 * the accepted draws to @p out in order and returns their count. Draw
 * k is exactly what a fresh std::normal_distribution<double>{0, 1}
 * returns when its attempts read the same words. @p mode picks the
 * instruction set of every pass but the log, which stays scalar libm.
 */
std::size_t polarNormals(const uint64_t *raw, std::size_t pairs,
                         double *out, SimdMode mode);

/**
 * The whole in-place twist of the kMtN-word state @p mt, four words
 * per vector; when @p out is not null, also the tempered outputs of
 * the new state. Bit-identical to the scalar twist and mt64Temper.
 */
void mtTwistAvx2(uint64_t *mt, uint64_t *out);

/**
 * The polar method's candidate and compaction passes for the leading
 * multiple of four of @p pairs attempts: attempt k reads raw words 2k
 * (x) and 2k+1 (y), and if r2 = x * x + y * y is accepted its y and
 * r2 are appended at index *accepted of @p y and @p r2 (which it
 * advances). Returns how many attempts it handled; the caller
 * finishes the tail with the scalar passes.
 */
std::size_t polarAcceptAvx2(const uint64_t *raw, std::size_t pairs,
                            double *y, double *r2, std::size_t *accepted);

/**
 * The polar method's scale pass over accepted attempts: value[k]
 * holds ln r2[k] on entry and y[k] * sqrt(-2 * ln r2[k] / r2[k]) on
 * return. Handles the leading multiple of four of @p n and returns
 * how many.
 */
std::size_t polarScaleAvx2(std::size_t n, const double *y,
                           const double *r2, double *value);

} // namespace dcbatt::util::internal

#endif // DCBATT_UTIL_RANDOM_INTERNAL_H_

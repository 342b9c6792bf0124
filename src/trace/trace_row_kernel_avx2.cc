/**
 * @file
 * AVX2 bodies of the trace row kernel's plain-arithmetic passes (see
 * trace_row_kernel_internal.h). Compiled with -mavx2
 * -ffp-contract=off and free of fused intrinsics: each _mm256
 * operation below is one scalar operation of trace_row_kernel.cc in
 * the same operand order. The libm cosines and the rack-order column
 * sum stay in the scalar code.
 */

#include "trace/trace_row_kernel_internal.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <numbers>

namespace dcbatt::trace::internal {

namespace {

/**
 * std::clamp(v, lo, hi) is std::min(std::max(v, lo), hi):
 * m = (v < lo) ? lo : v, then (hi < m) ? hi : m. Ordered compares
 * are false on NaN, so NaN, ties and -0.0 pass through exactly as in
 * the scalar code (vmaxpd / vminpd pick a different operand there).
 */
inline __m256d
clamp4(__m256d v, __m256d lo, __m256d hi)
{
    __m256d m = _mm256_blendv_pd(v, lo, _mm256_cmp_pd(v, lo, _CMP_LT_OQ));
    return _mm256_blendv_pd(m, hi, _mm256_cmp_pd(hi, m, _CMP_LT_OQ));
}

} // namespace

std::size_t
diurnalArgsAvx2(double from_peak, const double *phase_s, std::size_t n,
                double *diurnal)
{
    const __m256d two_pi = _mm256_set1_pd(2.0 * std::numbers::pi);
    const __m256d day = _mm256_set1_pd(24.0 * 3600.0);
    const __m256d peak = _mm256_set1_pd(from_peak);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d arg = _mm256_mul_pd(
            two_pi, _mm256_sub_pd(peak, _mm256_loadu_pd(phase_s + i)));
        _mm256_storeu_pd(diurnal + i, _mm256_div_pd(arg, day));
    }
    return i;
}

std::size_t
shapeRowAvx2(const ShapeArgs &a, std::size_t n, double *ar, double *row)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d weekly = _mm256_set1_pd(a.weekly);
    const __m256d lo = _mm256_set1_pd(a.rackMin);
    const __m256d hi = _mm256_set1_pd(a.rackMax);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        // innovation = normal * sigma + 0.0
        __m256d innovation = _mm256_add_pd(
            _mm256_mul_pd(_mm256_loadu_pd(a.normal + i),
                          _mm256_loadu_pd(a.sigma + i)),
            zero);
        // ar = rho * ar + innovation
        __m256d next = _mm256_add_pd(
            _mm256_mul_pd(_mm256_loadu_pd(a.rho + i),
                          _mm256_loadu_pd(ar + i)),
            innovation);
        _mm256_storeu_pd(ar + i, next);
        // shape = 1.0 + amplitude * weekly * diurnal + ar
        __m256d swing = _mm256_mul_pd(
            _mm256_mul_pd(_mm256_loadu_pd(a.amplitude + i), weekly),
            _mm256_loadu_pd(a.diurnal + i));
        __m256d shape = _mm256_add_pd(_mm256_add_pd(one, swing), next);
        _mm256_storeu_pd(
            row + i,
            clamp4(_mm256_mul_pd(_mm256_loadu_pd(a.base + i), shape), lo,
                   hi));
    }
    return i;
}

std::size_t
calibrateRowAvx2(double scale, double rack_min, double rack_max,
                 std::size_t n, double *row)
{
    const __m256d s = _mm256_set1_pd(scale);
    const __m256d lo = _mm256_set1_pd(rack_min);
    const __m256d hi = _mm256_set1_pd(rack_max);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(
            row + i,
            clamp4(_mm256_mul_pd(_mm256_loadu_pd(row + i), s), lo, hi));
    }
    return i;
}

} // namespace dcbatt::trace::internal

#else // !x86-64

namespace dcbatt::trace::internal {

// Never dispatched to off x86-64 (util::activeSimdMode() is never
// Avx2 there); the symbols exist so the dispatch code links unchanged.
std::size_t
diurnalArgsAvx2(double, const double *, std::size_t, double *)
{
    return 0;
}

std::size_t
shapeRowAvx2(const ShapeArgs &, std::size_t, double *, double *)
{
    return 0;
}

std::size_t
calibrateRowAvx2(double, double, double, std::size_t, double *)
{
    return 0;
}

} // namespace dcbatt::trace::internal

#endif

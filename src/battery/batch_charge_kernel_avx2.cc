/**
 * @file
 * AVX2 bodies of the batch CC-CV lanes. This translation unit is the
 * only one compiled with -mavx2, and it is compiled with
 * -ffp-contract=off: every _mm256 operation below maps 1:1 onto one
 * scalar operation of the fallback lanes (mul, div, sub, add, max,
 * min), so the results are bit-identical — the property the golden
 * artifacts and battery_batch_kernel_test rely on. No fused
 * multiply-add intrinsics, ever.
 */

#include "battery/batch_charge_kernel_internal.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace dcbatt::battery::internal {

std::size_t
ccLanesAvx2(const BatchChargeConsts &c, double dt, std::size_t n,
            double *dod, const double *setpoint, double *input_w)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d dt_v = _mm256_set1_pd(dt);
    const __m256d refill = _mm256_set1_pd(c.refillC);
    const __m256d soc_span = _mm256_set1_pd(c.ocvSocSpan);
    const __m256d volt_span = _mm256_set1_pd(c.ocvVoltSpan);
    const __m256d empty = _mm256_set1_pd(c.emptyV);
    const __m256d eff = _mm256_set1_pd(c.effic);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d d = _mm256_loadu_pd(dod + i);
        __m256d sp = _mm256_loadu_pd(setpoint + i);
        // max(0, dod - (sp * dt) / refill)
        __m256d nd = _mm256_max_pd(
            zero, _mm256_sub_pd(
                      d, _mm256_div_pd(_mm256_mul_pd(sp, dt_v),
                                       refill)));
        _mm256_storeu_pd(dod + i, nd);
        // clamp((1 - nd) / socSpan, 0, 1) as min(1, max(0, .)):
        // identical to std::clamp for the NaN-free operands here.
        __m256d t = _mm256_min_pd(
            one, _mm256_max_pd(
                     zero, _mm256_div_pd(_mm256_sub_pd(one, nd),
                                         soc_span)));
        __m256d v = _mm256_add_pd(empty, _mm256_mul_pd(volt_span, t));
        __m256d w = _mm256_div_pd(_mm256_mul_pd(v, sp), eff);
        _mm256_storeu_pd(input_w + i, w);
    }
    return i;
}

std::size_t
cvLanesAvx2(const BatchChargeConsts &c, double dt, double factor,
            std::size_t n, double *dod, const double *current,
            double *elapsed)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d dt_v = _mm256_set1_pd(dt);
    const __m256d refill = _mm256_set1_pd(c.refillC);
    const __m256d tau = _mm256_set1_pd(c.tauS);
    const __m256d factor_v = _mm256_set1_pd(factor);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d cur0 = _mm256_loadu_pd(current + i);
        __m256d cur1 = _mm256_mul_pd(cur0, factor_v);
        // max(0, dod - (tau * (i0 - i1)) / refill)
        __m256d delivered =
            _mm256_mul_pd(tau, _mm256_sub_pd(cur0, cur1));
        __m256d nd = _mm256_max_pd(
            zero, _mm256_sub_pd(_mm256_loadu_pd(dod + i),
                                _mm256_div_pd(delivered, refill)));
        _mm256_storeu_pd(dod + i, nd);
        _mm256_storeu_pd(elapsed + i,
                         _mm256_add_pd(_mm256_loadu_pd(elapsed + i),
                                       dt_v));
    }
    return i;
}

} // namespace dcbatt::battery::internal

#else // !x86-64

namespace dcbatt::battery::internal {

// Never dispatched to off x86-64 (util::activeSimdMode() is never
// Avx2 there); the symbols exist so the dispatch code links unchanged.
std::size_t
ccLanesAvx2(const BatchChargeConsts &, double, std::size_t, double *,
            const double *, double *)
{
    return 0;
}

std::size_t
cvLanesAvx2(const BatchChargeConsts &, double, double, std::size_t,
            double *, const double *, double *)
{
    return 0;
}

} // namespace dcbatt::battery::internal

#endif

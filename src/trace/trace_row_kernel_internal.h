/**
 * @file
 * The lane passes 2, 4 and 6 of TraceRowKernel (util/lanes.h):
 * trace_row_kernel.cc runs them, trace_row_kernel_avx2.cc holds their
 * W = 4 instances. Nothing outside src/trace includes this.
 */

#ifndef DCBATT_TRACE_TRACE_ROW_KERNEL_INTERNAL_H_
#define DCBATT_TRACE_TRACE_ROW_KERNEL_INTERNAL_H_

#include <numbers>

#include "trace/trace_row_kernel.h"
#include "util/lanes.h"

namespace dcbatt::trace {

namespace internal {

constexpr double kDay = 24.0 * 3600.0;
constexpr double kTwoPi = 2.0 * std::numbers::pi;

} // namespace internal

template <int W>
std::size_t
TraceRowKernel::diurnalArgs(std::size_t i, double from_peak)
{
    using L = util::Lanes<W>;
    const double *phase_s = phaseS_.data();
    double *diurnal = diurnal_.data();
    const std::size_t n = phaseS_.size();
    for (; i + W <= n; i += W) {
        L::store(diurnal + i, internal::kTwoPi
                                  * (from_peak - L::load(phase_s + i))
                                  / internal::kDay);
    }
    return i;
}

template <int W>
std::size_t
TraceRowKernel::shapeRow(std::size_t i, double weekly, double *ar,
                         double *row) const
{
    using L = util::Lanes<W>;
    using D = typename L::D;
    const double *normal = normal_.data();
    const double *sigma = innovationSigma_.data();
    const double *rho = rho_.data();
    const double *amplitude = amplitude_.data();
    const double *diurnal = diurnal_.data();
    const double *base = base_.data();
    const D lo = L::splat(rackMin_);
    const D hi = L::splat(rackMax_);
    const std::size_t n = base_.size();
    for (; i + W <= n; i += W) {
        const D innovation = L::load(normal + i) * L::load(sigma + i) + 0.0;
        const D next = L::load(rho + i) * L::load(ar + i) + innovation;
        L::store(ar + i, next);
        const D shape = 1.0
            + L::load(amplitude + i) * weekly * L::load(diurnal + i) + next;
        L::store(row + i,
                 util::laneClamp(L::load(base + i) * shape, lo, hi));
    }
    return i;
}

template <int W>
std::size_t
TraceRowKernel::calibrateRow(std::size_t i, double scale, double *row) const
{
    using L = util::Lanes<W>;
    const typename L::D lo = L::splat(rackMin_);
    const typename L::D hi = L::splat(rackMax_);
    const std::size_t n = base_.size();
    for (; i + W <= n; i += W)
        L::store(row + i, util::laneClamp(L::load(row + i) * scale, lo, hi));
    return i;
}

#ifdef DCBATT_HAVE_AVX2_TU
extern template std::size_t TraceRowKernel::diurnalArgs<4>(std::size_t,
                                                           double);
extern template std::size_t
TraceRowKernel::shapeRow<4>(std::size_t, double, double *, double *) const;
extern template std::size_t
TraceRowKernel::calibrateRow<4>(std::size_t, double, double *) const;
#endif

} // namespace dcbatt::trace

#endif // DCBATT_TRACE_TRACE_ROW_KERNEL_INTERNAL_H_

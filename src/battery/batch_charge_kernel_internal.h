/**
 * @file
 * The CC and CV lane passes of BatchChargeKernel (util/lanes.h):
 * batch_charge_kernel.cc runs them, batch_charge_kernel_avx2.cc holds
 * their W = 4 instances. Nothing outside src/battery includes this.
 */

#ifndef DCBATT_BATTERY_BATCH_CHARGE_KERNEL_INTERNAL_H_
#define DCBATT_BATTERY_BATCH_CHARGE_KERNEL_INTERNAL_H_

#include "battery/batch_charge_kernel.h"
#include "util/lanes.h"

namespace dcbatt::battery {

template <int W>
std::size_t
BatchChargeKernel::ccLanes(ChargeLaneColumns &lanes, double dt,
                           std::size_t i) const
{
    using L = util::Lanes<W>;
    using D = typename L::D;
    double *dod = lanes.ccDod.data();
    const double *setpoint = lanes.ccSetpointA.data();
    double *input_w = lanes.ccInputW.data();
    const std::size_t n = lanes.ccLanes();
    const D zero = L::splat(0.0);
    const D one = L::splat(1.0);
    for (; i + W <= n; i += W) {
        const D sp = L::load(setpoint + i);
        // applyCharge(dod, setpoint * dt): the whole step stays inside
        // the CC segment (the lane's gate checked the handover).
        const D nd =
            util::laneMax(zero, L::load(dod + i) - (sp * dt) / refillC_);
        L::store(dod + i, nd);
        // refreshDerived(): current == setpoint; input power from the
        // linear OCV line at the new DOD.
        const D t = util::laneClamp((1.0 - nd) / ocvSocSpan_, zero, one);
        const D v = emptyV_ + ocvVoltSpan_ * t;
        L::store(input_w + i, (v * sp) / effic_);
    }
    return i;
}

template <int W>
std::size_t
BatchChargeKernel::cvLanes(ChargeLaneColumns &lanes, double dt,
                           double factor, std::size_t i) const
{
    using L = util::Lanes<W>;
    using D = typename L::D;
    double *dod = lanes.cvDod.data();
    const double *current = lanes.cvCurrentA.data();
    double *elapsed = lanes.cvElapsedS.data();
    const std::size_t n = lanes.cvLanes();
    const D zero = L::splat(0.0);
    for (; i + W <= n; i += W) {
        // applyCharge(dod, cvDeliveredCoulombs(i0, i0 * factor)).
        const D i0 = L::load(current + i);
        const D i1 = i0 * factor;
        const D delivered = tauS_ * (i0 - i1);
        L::store(dod + i,
                 util::laneMax(zero, L::load(dod + i) - delivered / refillC_));
        L::store(elapsed + i, L::load(elapsed + i) + dt);
    }
    return i;
}

#ifdef DCBATT_HAVE_AVX2_TU
extern template std::size_t
BatchChargeKernel::ccLanes<4>(ChargeLaneColumns &, double, std::size_t) const;
extern template std::size_t
BatchChargeKernel::cvLanes<4>(ChargeLaneColumns &, double, double,
                              std::size_t) const;
#endif

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_BATCH_CHARGE_KERNEL_INTERNAL_H_

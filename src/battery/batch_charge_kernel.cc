#include "battery/batch_charge_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "battery/batch_charge_kernel_internal.h"
#include "battery/bbu.h"

namespace dcbatt::battery {

bool
batchChargingEnabled()
{
    // Once per process, like util::activeSimdMode().
    static const char *const env = std::getenv("DCBATT_BATCH");
    static const bool off = env != nullptr && std::string_view(env) == "off";
    return !off;
}

BatchChargeKernel::BatchChargeKernel(const BbuParams &params)
    : refillC_(params.refillCharge.value()),
      effic_(params.chargeEfficiency),
      emptyV_(params.emptyVoltage.value()),
      cvV_(params.cvVoltage.value()),
      tauS_(params.cvTimeConstant.value())
{
    // The OCV line constants of a model of the same calibration, so
    // both sides hold bit-equal spans.
    const BbuModel model(params);
    ocvSocSpan_ = model.ocvSocSpan_;
    ocvVoltSpan_ = model.ocvVoltSpan_;
}

void
BatchChargeKernel::ccLanesScalar(ChargeLaneColumns &lanes, double dt,
                                 std::size_t begin) const
{
    const std::size_t n = lanes.ccLanes();
    double *dod = lanes.ccDod.data();
    const double *sp = lanes.ccSetpointA.data();
    double *input_w = lanes.ccInputW.data();
    for (std::size_t i = begin; i < n; ++i) {
        // applyCharge(dod, setpoint * dt): the whole step stays inside
        // the CC segment (the lane's gate checked the handover).
        double nd = std::max(0.0, dod[i] - (sp[i] * dt) / refillC_);
        dod[i] = nd;
        // refreshDerived(): current == setpoint; input power from the
        // linear OCV line at the new DOD.
        double t = std::clamp((1.0 - nd) / ocvSocSpan_, 0.0, 1.0);
        double v = emptyV_ + ocvVoltSpan_ * t;
        input_w[i] = (v * sp[i]) / effic_;
    }
}

void
BatchChargeKernel::cvLanesScalar(ChargeLaneColumns &lanes, double dt,
                                 double factor, std::size_t begin) const
{
    const std::size_t n = lanes.cvLanes();
    double *dod = lanes.cvDod.data();
    const double *i0 = lanes.cvCurrentA.data();
    double *elapsed = lanes.cvElapsedS.data();
    for (std::size_t i = begin; i < n; ++i) {
        // applyCharge(dod, cvDeliveredCoulombs(i0, i0 * factor)).
        double i1 = i0[i] * factor;
        double nd =
            std::max(0.0, dod[i] - (tauS_ * (i0[i] - i1)) / refillC_);
        dod[i] = nd;
        elapsed[i] = elapsed[i] + dt;
    }
}

void
BatchChargeKernel::advanceWithMode(ChargeLaneColumns &lanes, double dt,
                                   SimdMode mode) const
{
    // One cvDecayFactor(dt) shared by every CV lane — the same double
    // the per-pack memo would return, since all lanes advance by dt.
    const double factor = std::exp(-dt / tauS_);

    std::size_t cc_done = 0;
    std::size_t cv_done = 0;
    if (mode == SimdMode::Avx2) {
        internal::BatchChargeConsts c{refillC_, effic_,      emptyV_,
                                      cvV_,     tauS_,       ocvSocSpan_,
                                      ocvVoltSpan_};
        cc_done = internal::ccLanesAvx2(
            c, dt, lanes.ccLanes(), lanes.ccDod.data(),
            lanes.ccSetpointA.data(), lanes.ccInputW.data());
        cv_done = internal::cvLanesAvx2(
            c, dt, factor, lanes.cvLanes(), lanes.cvDod.data(),
            lanes.cvCurrentA.data(), lanes.cvElapsedS.data());
    }
    ccLanesScalar(lanes, dt, cc_done);
    cvLanesScalar(lanes, dt, factor, cv_done);

    // Per-lane CV current and input power. The decay stays a scalar
    // libm std::exp in both modes: refreshDerived() recomputes
    // e^{-elapsed/tau} from scratch (not i0 * factor — the floats
    // differ), and vectorized exp implementations are not bit-equal
    // to libm's.
    const std::size_t n = lanes.cvLanes();
    const double *sp = lanes.cvSetpointA.data();
    const double *elapsed = lanes.cvElapsedS.data();
    double *current = lanes.cvCurrentA.data();
    double *input_w = lanes.cvInputW.data();
    for (std::size_t i = 0; i < n; ++i) {
        double decay = std::exp(-elapsed[i] / tauS_);
        double cur = sp[i] * decay;
        current[i] = cur;
        input_w[i] = (cvV_ * cur) / effic_;
    }
}

} // namespace dcbatt::battery

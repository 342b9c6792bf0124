#include "battery/batch_charge_kernel.h"

#include <cmath>
#include <cstdlib>
#include <string_view>

#include "battery/batch_charge_kernel_internal.h"
#include "battery/bbu.h"
#include "util/logging.h"

namespace dcbatt::battery {

bool
batchChargingFor(const char *value)
{
    const std::string_view v = value != nullptr ? value : "";
    if (v.empty() || v == "on")
        return true;
    if (v == "off")
        return false;
    util::fatal(
        util::strf("DCBATT_BATCH=%s: expected one of on|off", value));
}

bool
batchChargingEnabled()
{
    // Once per process, like util::activeSimdMode().
    static const bool enabled = batchChargingFor(std::getenv("DCBATT_BATCH"));
    return enabled;
}

void
resolveKernelSwitches()
{
    activeSimdMode();
    batchChargingEnabled();
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
BatchChargeKernel::advanceWithMode(ChargeLaneColumns &lanes, double dt,
                                   SimdMode mode) const
{
    // One cvDecayFactor(dt) shared by every CV lane — the same double
    // the per-pack memo would return, since all lanes advance by dt.
    const double factor = std::exp(-dt / tauS_);

    util::runLanes(mode, 0, [&]<int W>(std::size_t i) {
        return ccLanes<W>(lanes, dt, i);
    });
    util::runLanes(mode, 0, [&]<int W>(std::size_t i) {
        return cvLanes<W>(lanes, dt, factor, i);
    });

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

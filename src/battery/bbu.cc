#include "battery/bbu.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace dcbatt::battery {

using util::Amperes;
using util::Coulombs;
using util::Joules;
using util::Seconds;
using util::Volts;
using util::Watts;

const char *
toString(BbuState state)
{
    switch (state) {
      case BbuState::FullyCharged:
        return "fully_charged";
      case BbuState::Discharging:
        return "discharging";
      case BbuState::FullyDischarged:
        return "fully_discharged";
      case BbuState::Charging:
        return "charging";
    }
    DCBATT_UNREACHABLE("invalid BbuState %d", static_cast<int>(state));
}

BbuModel::BbuModel(BbuParams params) : params_(params), kernel_(params)
{
    // Constants of the open-circuit-voltage line, computed once with
    // exactly the expressions terminalVoltage() originally evaluated
    // per read (so cached reads stay bit-identical).
    double ref_threshold = cvCharge(params_.originalCurrent)
        / params_.refillCharge;
    ocvSocSpan_ = 1.0 - ref_threshold;
    ocvVoltSpan_ = params_.ccEndVoltage.value()
        - params_.emptyVoltage.value();
}

void
BbuModel::setSetpoint(Amperes current)
{
    setpoint_ = util::clamp(current, params_.minCurrent,
                            params_.maxCurrent);
    refreshDerived();
}

void
BbuModel::setPaused(bool paused)
{
    paused_ = paused;
    refreshDerived();
}

Coulombs
BbuModel::cvCharge(Amperes setpoint) const
{
    return (setpoint - params_.cutoffCurrent) * params_.cvTimeConstant;
}

Volts
BbuModel::terminalVoltage() const
{
    if (state_ == BbuState::Charging && inCv_)
        return params_.cvVoltage;
    // Linear open-circuit curve from empty (42.6 V at DOD 1) to the CC
    // end voltage. The CC->CV handover for the reference 5 A setpoint
    // happens at DOD ~0.22, which is where the line is pinned to 52 V.
    double t = std::clamp((1.0 - dod_) / ocvSocSpan_, 0.0, 1.0);
    double v = params_.emptyVoltage.value() + ocvVoltSpan_ * t;
    return Volts(v);
}

Joules
BbuModel::discharge(Watts power, Seconds dt)
{
    DCBATT_REQUIRE(power.value() >= 0.0,
                   "negative discharge power %g W", power.value());
    if (state_ == BbuState::FullyDischarged || power.value() == 0.0
        || dt.value() <= 0.0) {
        return Joules(0.0);
    }
    state_ = BbuState::Discharging;
    inCv_ = false;
    paused_ = false;
    cvElapsed_ = Seconds(0.0);
    Joules requested = power * dt;
    Joules available = params_.fullDischargeEnergy * (1.0 - dod_);
    Joules delivered = util::min(requested, available);
    dod_ += delivered / params_.fullDischargeEnergy;
    if (dod_ >= 1.0 - 1e-12) {
        dod_ = 1.0;
        state_ = BbuState::FullyDischarged;
    }
    DCBATT_ASSERT(dod_ >= 0.0 && dod_ <= 1.0,
                  "DOD %.12g outside [0, 1] after discharge", dod_);
    refreshDerived();
    return delivered;
}

void
BbuModel::startCharging(Amperes initial_current)
{
    if (state_ == BbuState::FullyCharged)
        return;
    setSetpoint(initial_current);
    state_ = BbuState::Charging;
    cvElapsed_ = Seconds(0.0);
    inCv_ = false;
    maybeEnterCv();
    refreshDerived();
}

void
BbuModel::maybeEnterCv()
{
    // The CC-CV state machine only moves forward: once the remaining
    // deficit fits in the CV tail the pack enters CV and stays there
    // until charging completes (or a discharge resets the cycle).
    if (!inCv_
        && kernel_.shouldEnterCv(dod_, setpoint_.value())) {
        inCv_ = true;
        cvElapsed_ = Seconds(0.0);
    }
}

void
BbuModel::step(Seconds dt)
{
    if (state_ != BbuState::Charging || paused_ || dt.value() <= 0.0)
        return;
    DCBATT_ASSERT(setpoint_ >= params_.minCurrent
                      && setpoint_ <= params_.maxCurrent,
                  "charging setpoint %g A outside hardware range "
                  "[%g, %g]",
                  setpoint_.value(), params_.minCurrent.value(),
                  params_.maxCurrent.value());
    stepAnalytic(dt);
}

double
BbuModel::cvAdvanceFactorMemo(double advance)
{
    if (advance != cvAdvanceKey_) {
        cvAdvanceKey_ = advance;
        cvAdvanceFactor_ = kernel_.cvDecayFactor(advance);
    }
    return cvAdvanceFactor_;
}

void
BbuModel::stepAnalytic(Seconds dt)
{
    double remaining = dt.value();
    while (remaining > 1e-12) {
        maybeEnterCv();
        if (!inCv_) {
            // CC phase: constant current until the deficit equals the
            // CV-phase charge. Advance either the full step or exactly
            // to the handover, whichever is sooner.
            double handover_s =
                kernel_.ccHandoverSeconds(dod_, setpoint_.value());
            DCBATT_ASSERT(handover_s >= 0.0,
                          "CC phase with deficit %g C below CV charge "
                          "%g C",
                          deficit().value(),
                          cvCharge(setpoint_).value());
            double advance = std::min(remaining, handover_s);
            dod_ = kernel_.applyCharge(dod_,
                                       setpoint_.value() * advance);
            remaining -= advance;
        } else {
            // CV phase: exponentially decaying current; charging is
            // complete when the current reaches the cutoff. Charge
            // delivered beyond the residual deficit is absorbed by
            // top-of-charge balancing (deficit clamps at zero). The
            // segment's start current is the cached instantaneous
            // current: at CV entry the decay factor is exactly 1, and
            // at a step boundary the cache was refreshed with the
            // same e^{-elapsed/tau} the original model recomputed.
            double total_cv = totalCvMemo();
            double left = total_cv - cvElapsed_.value();
            double advance = std::min(remaining, left);
            double i0 = cachedCurrentA_;
            double i1 = i0 * cvAdvanceFactorMemo(advance);
            dod_ = kernel_.applyCharge(
                dod_, kernel_.cvDeliveredCoulombs(i0, i1));
            cvElapsed_ += Seconds(advance);
            remaining -= advance;
            if (cvElapsed_.value() >= total_cv - 1e-9) {
                completeCharge();
                return;
            }
        }
    }
    refreshDerived();
}

void
BbuModel::completeCharge()
{
    dod_ = 0.0;
    state_ = BbuState::FullyCharged;
    setpoint_ = Amperes(0.0);
    inCv_ = false;
    cvElapsed_ = Seconds(0.0);
    refreshDerived();
}

void
BbuModel::refreshDerived()
{
    if (state_ != BbuState::Charging) {
        cachedCurrentA_ = 0.0;
        cachedInputW_ = 0.0;
        return;
    }
    if (paused_) {
        cachedCurrentA_ = 0.0;
    } else if (!inCv_) {
        cachedCurrentA_ = setpoint_.value();
    } else {
        double decay = std::exp(-cvElapsed_ / params_.cvTimeConstant);
        cachedCurrentA_ = (setpoint_ * decay).value();
    }
    // Input power, with exactly the expression the original model
    // evaluated on every read (a paused pack draws V * 0 / eff == 0).
    Watts cell_power = terminalVoltage() * chargingCurrent();
    cachedInputW_ = (cell_power / params_.chargeEfficiency).value();
}

void
BbuModel::reset()
{
    state_ = BbuState::FullyCharged;
    dod_ = 0.0;
    setpoint_ = Amperes(0.0);
    inCv_ = false;
    paused_ = false;
    cvElapsed_ = Seconds(0.0);
    refreshDerived();
}

void
BbuModel::forceDod(double dod)
{
    DCBATT_REQUIRE(dod >= 0.0 && dod <= 1.0, "bad DOD %g", dod);
    dod_ = dod;
    inCv_ = false;
    cvElapsed_ = Seconds(0.0);
    if (dod == 0.0) {
        state_ = BbuState::FullyCharged;
        setpoint_ = Amperes(0.0);
    } else if (dod == 1.0) {
        state_ = BbuState::FullyDischarged;
    } else {
        state_ = BbuState::Discharging;
    }
    refreshDerived();
}

} // namespace dcbatt::battery

/**
 * @file
 * Piecewise-analytic CC-CV fast-forward kernel.
 *
 * The CC-CV trajectory between control-plane interventions is closed
 * form: the CC phase is linear in state of charge, the CV phase is the
 * paper's exponential current decay. This kernel exposes that math as
 * a set of primitives — the CC->CV handover time, the CV duration,
 * the current decay, and an analytic advance that jumps the state by
 * an arbitrary dt — so callers never have to integrate second by
 * second.
 *
 * BbuModel composes these primitives on its hot path (keeping its own
 * derived-value caches); tests and the charge-time cross-checks use
 * the self-contained advance() below. Every expression here mirrors
 * the stepped model bit for bit: stepping a BbuModel and fast-
 * forwarding a CcCvState through the same boundaries produces
 * identical doubles, which is what keeps the figure artifacts byte-
 * identical to the pre-kernel integrator.
 */

#ifndef DCBATT_BATTERY_CC_CV_KERNEL_H_
#define DCBATT_BATTERY_CC_CV_KERNEL_H_

#include <cmath>

#include "battery/bbu_params.h"

namespace dcbatt::battery {

/** Charging-trajectory state advanced by the kernel. */
struct CcCvState
{
    /** Depth of discharge in [0, 1]; 0 means full. */
    double dod = 0.0;
    /** Whether the charger is in the CV phase. */
    bool inCv = false;
    /** Seconds spent in the CV phase so far. */
    double cvElapsedSeconds = 0.0;
};

/** Closed-form CC-CV charging math for one parameter set. */
class CcCvKernel
{
  public:
    explicit CcCvKernel(const BbuParams &params) : params_(params) {}

    const BbuParams &params() const { return params_; }

    /** Charge the CV phase delivers for a given setpoint (coulombs). */
    double
    cvChargeCoulombs(double setpoint_a) const
    {
        return (util::Amperes(setpoint_a) - params_.cutoffCurrent)
            .value() * params_.cvTimeConstant.value();
    }

    /** Remaining charge deficit at a given DOD (coulombs). */
    double
    deficitCoulombs(double dod) const
    {
        return (params_.refillCharge * dod).value();
    }

    /** Whether the CC phase is over (the deficit fits the CV tail). */
    bool
    shouldEnterCv(double dod, double setpoint_a) const
    {
        return deficitCoulombs(dod) <= cvChargeCoulombs(setpoint_a);
    }

    /** Total CV-phase duration for a setpoint (DOD-independent). */
    double
    totalCvSeconds(double setpoint_a) const
    {
        return params_.cvTimeConstant.value()
            * std::log(util::Amperes(setpoint_a)
                       / params_.cutoffCurrent);
    }

    /** Seconds of CC phase left before the handover to CV. */
    double
    ccHandoverSeconds(double dod, double setpoint_a) const
    {
        double to_handover =
            deficitCoulombs(dod) - cvChargeCoulombs(setpoint_a);
        return to_handover / setpoint_a;
    }

    /**
     * Whether a CC step of @p dt_seconds stays strictly inside the CC
     * segment: no handover due at its start, none inside it (so the
     * stepped model's min(dt, handover) is dt).
     */
    bool
    ccStepInterior(double dod, double setpoint_a, double dt_seconds) const
    {
        return !shouldEnterCv(dod, setpoint_a)
            && !(dt_seconds > ccHandoverSeconds(dod, setpoint_a));
    }

    /**
     * Whether a CV step of @p dt_seconds, @p elapsed_seconds into a CV
     * phase lasting @p total_cv_seconds, neither overruns the CV time
     * left nor trips the stepped model's completion check.
     */
    static bool
    cvStepInterior(double total_cv_seconds, double elapsed_seconds,
                   double dt_seconds)
    {
        return !(dt_seconds > total_cv_seconds - elapsed_seconds)
            && !(elapsed_seconds + dt_seconds >= total_cv_seconds - 1e-9);
    }

    /** CV-phase current decay over @p seconds. */
    double
    cvDecayFactor(double seconds) const
    {
        return std::exp(-seconds / params_.cvTimeConstant.value());
    }

    /** Charge a CV segment delivers as its current falls i0 -> i1. */
    double
    cvDeliveredCoulombs(double i0_a, double i1_a) const
    {
        return params_.cvTimeConstant.value() * (i0_a - i1_a);
    }

    /** DOD after absorbing @p coulombs (clamped at full). */
    double
    applyCharge(double dod, double coulombs) const
    {
        return std::max(
            0.0, dod - coulombs / params_.refillCharge.value());
    }

    /**
     * Fast-forward @p state by @p dt_seconds at a fixed setpoint,
     * splitting the advance at state boundaries. @returns true when
     * the charge completed (dod clamped to 0, state left at the CV
     * end); the caller owns the discrete completion transition.
     */
    bool advance(CcCvState &state, double setpoint_a,
                 double dt_seconds) const;

  private:
    BbuParams params_;
};

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_CC_CV_KERNEL_H_

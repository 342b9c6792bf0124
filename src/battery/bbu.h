/**
 * @file
 * Dynamic model of one battery backup unit (BBU).
 *
 * Implements the four-state machine of Fig. 8(a) — FullyCharged,
 * Discharging, FullyDischarged, Charging — with the CC-CV charging
 * dynamics whose closed form lives in ChargeTimeModel. The two agree
 * exactly: stepping this model to completion takes the same time (to
 * within one integration step) as ChargeTimeModel::chargeTime().
 *
 * The charger behaviour reproduces the deployed hardware:
 *  - CC phase: constant setpoint current, terminal voltage rising from
 *    42.6 V to 52.0 V; hands over to CV when the remaining deficit
 *    equals the charge the CV phase will deliver.
 *  - CV phase: 52.5 V, current decaying exponentially from the setpoint
 *    with time constant tau until the 0.4 A cutoff. The decay is
 *    time-based: after a shallow discharge the pack still walks through
 *    the full CV tail (top-of-charge balancing), which is why measured
 *    charge time is flat below the DOD threshold and why the *original*
 *    charger always produces the worst-case initial power spike, the
 *    root cause the paper identifies.
 *  - The setpoint can be changed while charging (manual override).
 *
 * step() composes the closed-form primitives of CcCvKernel: the next
 * state boundary (CC->CV handover, CV cutoff) is computed exactly and
 * the state jumps there, with the instantaneous current and the CV
 * duration cached on the model so reads do no transcendental work.
 * This path is bit-identical to the original per-second integrator at
 * every step size. The CC-CV parity suite checks it against an
 * independent rectangle-rule integrator that lives in the tests.
 */

#ifndef DCBATT_BATTERY_BBU_H_
#define DCBATT_BATTERY_BBU_H_

#include "battery/bbu_params.h"
#include "battery/cc_cv_kernel.h"
#include "util/check.h"
#include "util/units.h"

namespace dcbatt::battery {

/** Battery states of Fig. 8(a). */
enum class BbuState
{
    FullyCharged,
    Discharging,
    FullyDischarged,
    Charging,
};

const char *toString(BbuState state);

/** One BBU with CC-CV recharge dynamics. */
class BbuModel
{
  public:
    explicit BbuModel(BbuParams params = {});

    const BbuParams &params() const { return params_; }

    BbuState state() const { return state_; }
    /** Depth of discharge in [0, 1]; 0 means full. */
    double dod() const { return dod_; }
    bool fullyCharged() const { return state_ == BbuState::FullyCharged; }
    bool fullyDischarged() const
    {
        return state_ == BbuState::FullyDischarged;
    }
    bool charging() const { return state_ == BbuState::Charging; }

    /** Whether the charger is in the CV phase (meaningful if charging). */
    bool inCvPhase() const { return charging() && inCv_; }

    /** Present CC setpoint. */
    util::Amperes setpoint() const { return setpoint_; }

    /**
     * Change the CC setpoint (manual-override path). Clamped to the
     * hardware range. Takes effect immediately; actuation latency is
     * modelled by the control plane, not the pack.
     */
    void setSetpoint(util::Amperes current);

    /**
     * Pause/resume charging (the postponed-charging extension the
     * paper lists as future work). A paused pack stays in the
     * Charging state but draws no current and makes no progress; the
     * CV decay clock is frozen with it.
     */
    void setPaused(bool paused);
    bool paused() const { return paused_; }

    /** Instantaneous charging current drawn by the cells (0 if idle). */
    util::Amperes chargingCurrent() const
    {
        return util::Amperes(cachedCurrentA_);
    }

    /** Terminal voltage under the present state. */
    util::Volts terminalVoltage() const;

    /** Wall (input) power consumed by charging, incl. PSU loss. */
    util::Watts inputPower() const
    {
        if (state_ != BbuState::Charging)
            return util::Watts(0.0);
        return util::Watts(cachedInputW_);
    }

    /**
     * Begin (or continue) discharging at the given cell power draw.
     * Transitions to Discharging; to FullyDischarged when the energy
     * runs out mid-step. @returns the energy actually delivered, which
     * is less than power*dt if the pack empties.
     */
    util::Joules discharge(util::Watts power, util::Seconds dt);

    /**
     * Input power restored: begin charging at @p initial_current
     * (clamped to hardware range). A fully charged pack stays
     * FullyCharged. Charging restarts cleanly even if already charging
     * (e.g. a second open transition mid-charge).
     */
    void startCharging(util::Amperes initial_current);

    /** Advance charging dynamics by dt. No-op unless Charging. */
    void step(util::Seconds dt);

    /**
     * Snapshot of the fields that determine a pack's dynamic
     * evolution. Two packs with bit-equal ChargeStates (and the same
     * calibration) stepped by the same dt stay bit-equal — the
     * integrator is deterministic — which is what lets one charge lane
     * (charge_lanes.h) step every healthy pack of a shelf at once.
     */
    struct ChargeState
    {
        BbuState state;
        double dod;
        double setpointA;
        double cvElapsedS;
        bool inCv;
        bool paused;
    };

    ChargeState chargeState() const
    {
        return {state_, dod_, setpoint_.value(), cvElapsed_.value(),
                inCv_, paused_};
    }

    /** Whether this pack's dynamic state bit-equals @p s. */
    bool matches(const ChargeState &s) const
    {
        return state_ == s.state && dod_ == s.dod
            && setpoint_.value() == s.setpointA
            && inCv_ == s.inCv && paused_ == s.paused
            && cvElapsed_.value() == s.cvElapsedS;
    }

    /** Reset to FullyCharged. */
    void reset();

    /** Inject a DOD directly (test/benchmark setup helper). */
    void forceDod(double dod);

  private:
    /**
     * Resident lanes (charge_lanes.h) read a shelf's first healthy
     * pack and write their state into every healthy pack; the batch
     * kernel reads the OCV line constants.
     */
    friend class ChargeLanes;
    friend class BatchChargeKernel;

    /** Remaining charge deficit in coulombs. */
    util::Coulombs deficit() const { return params_.refillCharge * dod_; }

    /** CV-phase charge for a given setpoint. */
    util::Coulombs cvCharge(util::Amperes setpoint) const;

    void maybeEnterCv();

    /** Closed-form fast-forward through the state boundaries. */
    void stepAnalytic(util::Seconds dt);

    /** Discrete completion transition. */
    void completeCharge();

    /**
     * Recompute the cached instantaneous current after any state
     * change. Uses exactly the expressions the original model
     * evaluated on every read, so cached reads stay bit-identical.
     */
    void refreshDerived();

    /** Cached tau*log(setpoint/cutoff), keyed by the setpoint. */
    double totalCvMemo();

    /** Cached e^{-advance/tau}, keyed by the advance length. */
    double cvAdvanceFactorMemo(double advance);

    BbuParams params_;
    CcCvKernel kernel_;
    BbuState state_ = BbuState::FullyCharged;
    double dod_ = 0.0;
    util::Amperes setpoint_{0.0};
    bool inCv_ = false;
    bool paused_ = false;
    util::Seconds cvElapsed_{0.0};

    /** chargingCurrent() in amperes; valid at every quiescent point. */
    double cachedCurrentA_ = 0.0;
    /** inputPower() in watts while Charging; refreshed with it. */
    double cachedInputW_ = 0.0;
    /** Constants of the linear OCV curve (terminalVoltage). */
    double ocvSocSpan_ = 1.0;
    double ocvVoltSpan_ = 0.0;

    /** Memo slots (sentinel keys: both quantities are positive). */
    double totalCvKey_ = -1.0;
    double totalCvCache_ = 0.0;
    double cvAdvanceKey_ = -1.0;
    double cvAdvanceFactor_ = 1.0;
};

// Inline: a lane's admission reads it once per rack per charging step.

inline double
BbuModel::totalCvMemo()
{
    if (setpoint_.value() != totalCvKey_) {
        totalCvKey_ = setpoint_.value();
        totalCvCache_ = kernel_.totalCvSeconds(totalCvKey_);
    }
    return totalCvCache_;
}

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_BBU_H_

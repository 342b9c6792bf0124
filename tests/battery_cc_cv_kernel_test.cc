/**
 * @file
 * Property tests of BbuModel's analytic CC-CV stepping against an
 * independent rectangle-rule integrator.
 *
 * The reference lives here, not in the library. It is built only on
 * CcCvKernel's public primitives and keeps its own state machine,
 * setpoint clamp, CV current and completion rule, so it shares none of
 * BbuModel's stepping code.
 *
 * The parity contract (DESIGN.md section 10): while both are in
 * flight they agree on every discrete outcome exactly — charging or
 * not, CV phase (the CC phase is linear, so the rectangle rule is
 * exact there and the CC->CV handover lands on the same step bit for
 * bit) — and completion lands within one substep of the closed form.
 * The reference SoC may *lead* the analytic one (the left-endpoint
 * rectangle over-delivers against a decaying current), by at most
 * maxCurrent * substep / refillCharge. The sweep covers the DOD range
 * the experiments visit, setpoint changes mid-CC and mid-CV, and the
 * tau/cutoff edge values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "battery/bbu.h"
#include "battery/cc_cv_kernel.h"
#include "battery/charge_time_model.h"

namespace dcbatt::battery {
namespace {

using util::Amperes;
using util::Seconds;

/** The reference integrator's CV substep (seconds). */
constexpr double kSubstepS = 1.0;

/**
 * Fixed-substep CC-CV integrator. CC advances linearly, cut at the
 * handover. CV integrates a running current with the rectangle rule,
 * decays it by e^{-h/tau} per substep and completes once it reaches
 * the cutoff.
 */
class RectangleReference
{
  public:
    explicit RectangleReference(const BbuParams &params)
        : kernel_(params)
    {
    }

    bool charging() const { return charging_; }
    bool inCvPhase() const { return charging_ && inCv_; }
    double dod() const { return dod_; }
    double currentA() const
    {
        if (!charging_ || paused_)
            return 0.0;
        return inCv_ ? cvCurrentA_ : setpointA_;
    }

    void
    startCharging(double dod, double setpoint_a)
    {
        dod_ = dod;
        charging_ = true;
        inCv_ = false;
        cvElapsedS_ = 0.0;
        setSetpoint(setpoint_a);
        enterCvIfDue();
    }

    /** Clamped to the hardware range; re-anchors a CV current. */
    void
    setSetpoint(double setpoint_a)
    {
        const BbuParams &p = kernel_.params();
        setpointA_ = std::clamp(setpoint_a, p.minCurrent.value(),
                                p.maxCurrent.value());
        if (inCv_)
            cvCurrentA_ =
                setpointA_ * kernel_.cvDecayFactor(cvElapsedS_);
    }

    void setPaused(bool paused) { paused_ = paused; }

    void
    step(double dt)
    {
        if (!charging_ || paused_)
            return;
        double remaining = dt;
        while (remaining > 1e-12) {
            enterCvIfDue();
            if (!inCv_) {
                double advance = std::min(
                    remaining,
                    kernel_.ccHandoverSeconds(dod_, setpointA_));
                dod_ = kernel_.applyCharge(dod_, setpointA_ * advance);
                remaining -= advance;
                continue;
            }
            double h = std::min(remaining, kSubstepS);
            dod_ = kernel_.applyCharge(dod_, cvCurrentA_ * h);
            cvCurrentA_ *= kernel_.cvDecayFactor(h);
            cvElapsedS_ += h;
            remaining -= h;
            if (cvCurrentA_ <= kernel_.params().cutoffCurrent.value()) {
                charging_ = false;
                inCv_ = false;
                dod_ = 0.0;
                return;
            }
        }
    }

  private:
    void
    enterCvIfDue()
    {
        if (!inCv_ && kernel_.shouldEnterCv(dod_, setpointA_)) {
            inCv_ = true;
            cvElapsedS_ = 0.0;
            cvCurrentA_ = setpointA_;
        }
    }

    CcCvKernel kernel_;
    double dod_ = 0.0;
    double setpointA_ = 0.0;
    double cvCurrentA_ = 0.0;
    double cvElapsedS_ = 0.0;
    bool charging_ = false;
    bool inCv_ = false;
    bool paused_ = false;
};

/**
 * Worst-case accumulated DOD gap between the rectangle-rule reference
 * and the exact integral: the per-substep excess is
 * i0*h - i0*tau*(1 - e^{-h/tau}) <= i0*h^2/(2*tau), which summed over
 * the whole CV tail is bounded by one substep of charge at the
 * maximum setpoint.
 */
double
dodTolerance(const BbuParams &params)
{
    return params.maxCurrent.value() * kSubstepS
        / params.refillCharge.value() + 1e-12;
}

BbuModel
makeCharging(double dod, double setpoint_a, BbuParams params = {})
{
    BbuModel bbu(params);
    bbu.forceDod(dod);
    bbu.startCharging(Amperes(setpoint_a));
    return bbu;
}

RectangleReference
makeReference(double dod, double setpoint_a, BbuParams params = {})
{
    RectangleReference reference(params);
    reference.startCharging(dod, setpoint_a);
    return reference;
}

/** A setpoint change applied to both sides before step @p step. */
struct SetpointChange
{
    int step = -1;
    double setpointA = 0.0;
    /** The CC/CV phase the model must be in at the change. */
    bool inCv = false;
};

/**
 * Step the model and the reference in lockstep until both complete,
 * asserting the parity contract at every observation point.
 */
void
runParity(double dod, double setpoint_a, BbuParams params = {},
          SetpointChange change = {})
{
    BbuModel analytic = makeCharging(dod, setpoint_a, params);
    RectangleReference reference =
        makeReference(dod, setpoint_a, params);
    const Seconds dt(1.0);
    double last_analytic_dod = analytic.dod();
    int analytic_done = -1;
    int reference_done = -1;
    // Generous horizon: the longest charge (100 % DOD at 1 A) takes
    // ~2.6 h + the CV tail.
    for (int step = 0; step < 6 * 3600; ++step) {
        if (step == change.step) {
            ASSERT_EQ(analytic.inCvPhase(), change.inCv);
            analytic.setSetpoint(Amperes(change.setpointA));
            reference.setSetpoint(change.setpointA);
        }
        analytic.step(dt);
        reference.step(dt.value());
        if (analytic_done < 0 && analytic.fullyCharged())
            analytic_done = step;
        if (reference_done < 0 && !reference.charging())
            reference_done = step;

        if (analytic_done < 0 && reference_done < 0) {
            // In flight: discrete outcomes agree exactly...
            ASSERT_TRUE(analytic.charging())
                << "step " << step << " dod " << dod << " setpoint "
                << setpoint_a;
            ASSERT_EQ(analytic.inCvPhase(), reference.inCvPhase())
                << "step " << step;
            // ...and the reference SoC leads the analytic one (the
            // rectangle rule over-delivers) by at most the documented
            // bound.
            ASSERT_LE(reference.dod(), analytic.dod() + 1e-12)
                << "step " << step;
            ASSERT_NEAR(analytic.dod(), reference.dod(),
                        dodTolerance(analytic.params()))
                << "step " << step;
        }

        // Monotone SoC: an unpaused charge never loses ground.
        if (!analytic.paused()) {
            ASSERT_LE(analytic.dod(), last_analytic_dod + 1e-15)
                << "step " << step;
        }
        last_analytic_dod = analytic.dod();

        if (analytic_done >= 0 && reference_done >= 0) {
            // Completion lands within one substep, and both clamp the
            // residual deficit to exactly zero.
            EXPECT_LE(std::abs(analytic_done - reference_done), 1)
                << "analytic " << analytic_done << " reference "
                << reference_done;
            EXPECT_EQ(analytic.dod(), 0.0);
            EXPECT_EQ(reference.dod(), 0.0);
            return;
        }
    }
    FAIL() << "charge did not complete: dod " << dod << " setpoint "
           << setpoint_a;
}

TEST(CcCvKernelParity, DodSweepAtEverySetpoint)
{
    for (double dod : {0.3, 0.5, 0.7}) {
        for (double setpoint : {1.0, 2.0, 3.5, 5.0}) {
            runParity(dod, setpoint);
        }
    }
}

TEST(CcCvKernelParity, SetpointChangeMidCc)
{
    // 0.7 DOD at 5 A stays in CC for ~14 min; drop to 2 A at t = 120 s
    // (still CC) and re-check the whole trajectory.
    runParity(0.7, 5.0, {}, {120, 2.0, false});
    // And an increase mid-CC.
    runParity(0.7, 2.0, {}, {120, 5.0, false});
}

TEST(CcCvKernelParity, SetpointChangeMidCv)
{
    // 0.3 DOD at 5 A is below the CC threshold: the pack enters CV on
    // the first step. Change the setpoint deep in the CV tail.
    runParity(0.3, 5.0, {}, {600, 2.0, true});
}

TEST(CcCvKernelParity, PauseAndResumeMidCharge)
{
    BbuModel analytic = makeCharging(0.5, 3.0);
    RectangleReference reference = makeReference(0.5, 3.0);
    const Seconds dt(1.0);
    for (int step = 0; step < 4 * 3600; ++step) {
        if (step == 100) {
            analytic.setPaused(true);
            reference.setPaused(true);
        }
        if (step == 400) {
            // No progress was made while paused.
            ASSERT_EQ(analytic.dod(), reference.dod());
            analytic.setPaused(false);
            reference.setPaused(false);
        }
        analytic.step(dt);
        reference.step(dt.value());
        if (step > 100 && step < 400) {
            ASSERT_EQ(analytic.chargingCurrent().value(), 0.0);
            ASSERT_EQ(reference.currentA(), 0.0);
        }
        ASSERT_EQ(analytic.charging(), reference.charging())
            << "step " << step;
        if (analytic.fullyCharged() && !reference.charging())
            return;
    }
    FAIL() << "paused charge did not complete";
}

TEST(CcCvKernelParity, TauEdgeValues)
{
    // Short tau: the CV tail is a sliver, exercising the boundary
    // split right at the handover. Long tau: almost the whole charge
    // is CV decay.
    for (double tau : {30.0, 373.0, 2000.0}) {
        BbuParams params;
        params.cvTimeConstant = Seconds(tau);
        runParity(0.5, 3.0, params);
    }
}

TEST(CcCvKernelParity, CutoffNearSetpoint)
{
    // Cutoff just below the setpoint: totalCv = tau*ln(s/cutoff) is
    // tiny, so completion lands within the first CV substep.
    BbuParams params;
    params.cutoffCurrent = Amperes(0.95);
    runParity(0.4, 1.0, params);
}

TEST(CcCvKernelParity, CompletionClampsDodExactly)
{
    BbuModel bbu = makeCharging(0.5, 5.0);
    RectangleReference reference = makeReference(0.5, 5.0);
    for (int step = 0; step < 4 * 3600 && !bbu.fullyCharged(); ++step)
        bbu.step(Seconds(1.0));
    for (int step = 0; step < 4 * 3600 && reference.charging(); ++step)
        reference.step(1.0);
    EXPECT_TRUE(bbu.fullyCharged());
    EXPECT_EQ(bbu.dod(), 0.0);
    EXPECT_EQ(bbu.chargingCurrent().value(), 0.0);
    EXPECT_EQ(bbu.inputPower().value(), 0.0);
    EXPECT_FALSE(reference.charging());
    EXPECT_EQ(reference.dod(), 0.0);
    EXPECT_EQ(reference.currentA(), 0.0);
}

TEST(CcCvKernelParity, AnalyticLargeStepMatchesSmallSteps)
{
    // The analytic path is step-size consistent: one 600 s step lands
    // on the same discrete state as 600 one-second steps, with the
    // SoC differing only by floating-point accumulation order (one
    // applyCharge of 600 s of charge vs 600 of 1 s each) — there is
    // no O(h) integration bias to amortize.
    BbuModel coarse = makeCharging(0.6, 4.0);
    BbuModel fine = makeCharging(0.6, 4.0);
    for (int window = 0; window < 12; ++window) {
        coarse.step(Seconds(600.0));
        for (int s = 0; s < 600; ++s)
            fine.step(Seconds(1.0));
        ASSERT_EQ(coarse.state(), fine.state()) << "window " << window;
        ASSERT_EQ(coarse.inCvPhase(), fine.inCvPhase())
            << "window " << window;
        ASSERT_NEAR(coarse.dod(), fine.dod(), 1e-11)
            << "window " << window;
        ASSERT_NEAR(coarse.chargingCurrent().value(),
                    fine.chargingCurrent().value(), 1e-11)
            << "window " << window;
    }
}

TEST(CcCvKernelParity, ChargeTimeModelCrossCheck)
{
    // Stepping the analytic model to completion takes the closed-form
    // charge time, within one step.
    ChargeTimeModel model;
    for (double dod : {0.3, 0.5, 0.7}) {
        for (double setpoint : {2.0, 5.0}) {
            BbuModel bbu = makeCharging(dod, setpoint);
            double t = 0.0;
            while (!bbu.fullyCharged() && t < 6.0 * 3600.0) {
                bbu.step(Seconds(1.0));
                t += 1.0;
            }
            double predicted =
                model.chargeTime(dod, Amperes(setpoint)).value();
            EXPECT_NEAR(t, predicted, 1.0 + 1e-9)
                << "dod " << dod << " setpoint " << setpoint;
        }
    }
}

} // namespace
} // namespace dcbatt::battery

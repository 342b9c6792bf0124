/**
 * @file
 * Struct-of-arrays batch advance for lockstep CC-CV charging.
 *
 * During a fleet-wide recharge, the healthy packs of most shelves move
 * in lockstep, so one state per shelf is integrated for all of them.
 * Those states all run the same closed-form CC-CV update with the same
 * dt and the same calibration — only their (dod, setpoint, cvElapsed)
 * differs. This kernel hoists that update out of the
 * per-rack object walk into two dense lane sets (one CC, one CV), held
 * resident across steps by battery::ChargeLanes, so the arithmetic
 * runs over contiguous columns in place, auto-vectorized in the scalar
 * build and hand-vectorized under AVX2 when the CPU has it.
 *
 * Bit-exactness contract: both lane implementations evaluate exactly
 * the expressions BbuModel::stepAnalytic() + refreshDerived() evaluate
 * for a strictly interior segment (no phase boundary inside dt), in
 * the same order, with no FMA contraction (the AVX2 translation unit
 * is compiled with -mavx2 -ffp-contract=off and never uses fused
 * intrinsics). The per-lane CV current decay keeps its scalar
 * std::exp — transcendentals are the one place vector math libraries
 * diverge from libm, and the golden artifacts are byte-compared.
 * battery_batch_kernel_test pins both parities (batch vs. BbuModel
 * step, AVX2 vs. scalar).
 *
 * Runtime switches, each read once per process: DCBATT_BATCH=off
 * admits no lane (Topology steps every pack of every charging rack);
 * DCBATT_SIMD picks the
 * lanes' instruction set, shared with every vector kernel (util/simd.h).
 */

#ifndef DCBATT_BATTERY_BATCH_CHARGE_KERNEL_H_
#define DCBATT_BATTERY_BATCH_CHARGE_KERNEL_H_

#include <cstddef>
#include <vector>

#include "battery/bbu_params.h"
#include "util/simd.h"

namespace dcbatt::battery {

using util::activeSimdMode;
using util::SimdMode;

/** Whether Topology admits charge lanes (DCBATT_BATCH, read once). */
bool batchChargingEnabled();

/**
 * The continuous state of the resident charge lanes (see
 * battery/charge_lanes.h), one row per lockstep shelf, in a CC set
 * and a CV set (their update expressions differ). Every vector of a
 * set has one entry per lane; BatchChargeKernel::advance() moves the
 * state forward in place.
 */
struct ChargeLaneColumns
{
    /** CC lanes; the current stays at the setpoint. */
    std::vector<double> ccDod;
    std::vector<double> ccSetpointA;
    std::vector<double> ccInputW;

    /** CV lanes. */
    std::vector<double> cvDod;
    std::vector<double> cvSetpointA;
    std::vector<double> cvElapsedS;
    /** Segment start current before advance(), end current after. */
    std::vector<double> cvCurrentA;
    std::vector<double> cvInputW;
    /** The CV phase's total length at the lane's setpoint. */
    std::vector<double> cvTotalS;

    std::size_t ccLanes() const { return ccDod.size(); }
    std::size_t cvLanes() const { return cvDod.size(); }
};

/** Batched CC-CV advance for one calibration (all racks share it). */
class BatchChargeKernel
{
  public:
    explicit BatchChargeKernel(const BbuParams &params);

    /**
     * Advance every lane of @p lanes by @p dt in place, under the
     * resolved mode. Each lane's step must be interior to its CC or CV
     * segment (CcCvKernel::ccStepInterior / cvStepInterior).
     */
    void
    advance(ChargeLaneColumns &lanes, double dt) const
    {
        advanceWithMode(lanes, dt, activeSimdMode());
    }

    /** Advance with an explicit mode (the parity test's hook). */
    void advanceWithMode(ChargeLaneColumns &lanes, double dt,
                         SimdMode mode) const;

  private:
    void ccLanesScalar(ChargeLaneColumns &lanes, double dt,
                       std::size_t begin) const;
    void cvLanesScalar(ChargeLaneColumns &lanes, double dt, double factor,
                       std::size_t begin) const;

    /** Derived constants, bit-equal to BbuModel's (same expressions). */
    double refillC_;
    double effic_;
    double emptyV_;
    double cvV_;
    double tauS_;
    double ocvSocSpan_;
    double ocvVoltSpan_;
};

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_BATCH_CHARGE_KERNEL_H_

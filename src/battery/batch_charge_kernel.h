/**
 * @file
 * Struct-of-arrays batch advance for lockstep CC-CV charging.
 *
 * During a fleet-wide recharge, the healthy packs of most shelves move
 * in lockstep, so one state per shelf is integrated for all of them.
 * Those states all run the same closed-form CC-CV update with the same
 * dt and the same calibration — only their (dod, setpoint, cvElapsed)
 * differs. This kernel hoists that update out of the per-rack object
 * walk into two dense lane sets (one CC, one CV), held resident across
 * steps by battery::ChargeLanes, so the arithmetic runs over
 * contiguous columns in place.
 *
 * Bit-exactness contract: each set's update is one lane pass
 * (batch_charge_kernel_internal.h, util/lanes.h), run four lanes per
 * AVX2 vector or one at a time, that evaluates exactly the expressions
 * BbuModel::stepAnalytic() + refreshDerived() evaluate for a strictly
 * interior segment (no phase boundary inside dt), in the same order.
 * The per-lane CV current decay keeps its scalar std::exp: vector math
 * libraries do not round like libm, and the golden artifacts are
 * byte-compared. battery_batch_kernel_test pins the lanes against
 * BbuModel::step() and the widths against each other.
 *
 * Runtime switches, each read once per process: DCBATT_BATCH=off
 * admits no lane (Topology steps every pack of every charging rack);
 * DCBATT_SIMD picks the lane width of every vector kernel
 * (util/simd.h).
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
 * Read DCBATT_SIMD and DCBATT_BATCH now: a bad value is fatal at the
 * first read, which must not happen on a worker lane.
 */
void resolveKernelSwitches();

/**
 * Whether DCBATT_BATCH=@p value admits charge lanes: unset (null),
 * empty and "on" do, "off" does not; util::fatal on any other value.
 */
bool batchChargingFor(const char *value);

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
    /** CC and CV lane passes from lane @p i (see runLanes). */
    template <int W>
    std::size_t ccLanes(ChargeLaneColumns &lanes, double dt,
                        std::size_t i) const;
    template <int W>
    std::size_t cvLanes(ChargeLaneColumns &lanes, double dt, double factor,
                        std::size_t i) const;

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

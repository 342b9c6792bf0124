/**
 * @file
 * Calibrated parameters of the battery backup unit (BBU) model.
 *
 * Every constant here is pinned to a number the paper reports (see
 * DESIGN.md section 4 for the full derivation):
 *
 *  - 100 % depth of discharge (DOD) is defined as discharging a BBU at
 *    3.3 kW of IT load for 90 seconds (footnote 1) => 297 kJ.
 *  - The original charger does constant-current (CC) charging at 5 A up
 *    to 52.0 V (about 20 minutes from full discharge), then constant
 *    voltage (CV) at 52.5 V until the current decays below 0.4 A; the
 *    full sequence completes in about 36 minutes (Fig. 3).
 *  - Those two times pin the refill charge Q = 7803 C and the CV decay
 *    time constant tau = 373 s. tau also reproduces the paper's CV
 *    power fit 1.9*e^{-0.18t} kW (t in minutes) and the observed flat
 *    charge time below 22 % DOD at 5 A.
 *  - The initial BBU charge power of ~260 W at 5 A pins the empty-cell
 *    voltage (42.6 V) and the PSU charging efficiency (0.82); the rack
 *    CC power of ~1.9 kW at 5 A and the fleet minimum of ~120 kW for
 *    316 racks at 1 A both follow from 6 BBUs/rack at 52.5 V / 0.82
 *    = 384 W per ampere per rack.
 */

#ifndef DCBATT_BATTERY_BBU_PARAMS_H_
#define DCBATT_BATTERY_BBU_PARAMS_H_

#include "util/units.h"

namespace dcbatt::battery {

/** Physical calibration of one BBU and its PSU charger. */
struct BbuParams
{
    /** Energy of a 100 % depth-of-discharge event (3.3 kW x 90 s). */
    util::Joules fullDischargeEnergy{297e3};

    /** Charge needed to refill from 100 % DOD, incl. acceptance loss. */
    util::Coulombs refillCharge{7803.0};

    /** CV-phase current decay time constant. */
    util::Seconds cvTimeConstant{373.0};

    /** CV-phase cutoff current: charging completes below this. */
    util::Amperes cutoffCurrent{0.4};

    /** Hardware charging-current range (manual override span). */
    util::Amperes minCurrent{1.0};
    util::Amperes maxCurrent{5.0};

    /** The original charger's fixed CC setpoint. */
    util::Amperes originalCurrent{5.0};

    /** Variable charger's floor current (Eq. 1, DOD < 50 %). */
    util::Amperes variableFloorCurrent{2.0};

    /** Cell voltage at 100 % DOD (pins the 260 W initial power). */
    util::Volts emptyVoltage{42.6};

    /** Voltage at which CC hands over to CV. */
    util::Volts ccEndVoltage{52.0};

    /** Regulated CV-phase voltage. */
    util::Volts cvVoltage{52.5};

    /** PSU wall-to-battery charging efficiency. */
    double chargeEfficiency = 0.82;

    /** Maximum sustained discharge power per BBU (3.3 kW). */
    util::Watts maxDischargePower{3300.0};

    /** BBUs per rack: two power zones, three BBUs each (2+1). */
    int bbusPerRack = 6;
    int zonesPerRack = 2;
};

/** Rack-level CC charging wall power per ampere of BBU setpoint. */
inline util::Watts
rackWattsPerAmpere(const BbuParams &p)
{
    return util::Watts(p.cvVoltage.value() * p.bbusPerRack
                       / p.chargeEfficiency);
}

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_BBU_PARAMS_H_

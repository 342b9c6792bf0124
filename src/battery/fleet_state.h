/**
 * @file
 * Struct-of-arrays per-rack power state of one topology.
 *
 * The charging-event engine samples the same handful of per-rack
 * quantities every physics step (IT load, recharge power, cap,
 * input/hold/charge-completion flags). Walking 316 rack objects and
 * their shelves for each read costs far more than the reads
 * themselves, so the topology keeps them as dense columns, one row per
 * rack, rack id == row index, and the sampling loop runs over them.
 *
 * Two kinds of column live here (DESIGN.md §16):
 *  - storage: `itDemandW`, `capW` and `powerTouched` are the racks'
 *    demand, cap and touched flag themselves. power::Rack reads and
 *    writes its own row, so these are always current.
 *  - snapshots: every other column holds exactly the value the object
 *    walk would produce at the post-step state. power::Topology::
 *    stepRacks() rewrites a row whenever its rack was touched or not
 *    quiescent, and Topology::applyDemandRow() keeps `itLoadW` current
 *    as it stores a trace row. They are not caches with invalidation.
 *
 * The rows are also the Dynamo control plane's only read path for
 * rack state: before a tick reads them, Topology::refreshTouchedRows()
 * writes back the rows an actuation touched since the last step.
 */

#ifndef DCBATT_BATTERY_FLEET_STATE_H_
#define DCBATT_BATTERY_FLEET_STATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcbatt::battery {

/** Per-rack power rows; rack id indexes every array. */
struct FleetState
{
    /** Storage: Rack::itDemand() in watts (uncapped, trace-driven). */
    std::vector<double> itDemandW;
    /** Storage: Rack::capAmount() in watts. */
    std::vector<double> capW;
    /** Storage: Rack::powerTouched(). */
    std::vector<std::uint8_t> powerTouched;
    /** Rack::itLoad() in watts (demand minus cap, floored at 0). */
    std::vector<double> itLoadW;
    /** Rack::rechargePower() in watts (0 while input power is off). */
    std::vector<double> rechargeW;
    /** Rack::inputPowerOn(). */
    std::vector<std::uint8_t> inputOn;
    /** PowerShelf::chargingHeld(). */
    std::vector<std::uint8_t> held;
    /** PowerShelf::fullyCharged(). */
    std::vector<std::uint8_t> fullyCharged;
    /** PowerShelf::chargingCount() (BBUs charging, CC or CV). */
    std::vector<std::int32_t> chargingBbus;
    /** PowerShelf::cvCount() (charging BBUs in the CV phase). */
    std::vector<std::int32_t> cvBbus;
    /** PowerShelf::chargeSetpoint() in amperes. */
    std::vector<double> setpointA;

    /**
     * Size every column once, before any rack points into the storage
     * columns: resizing later would leave those pointers dangling.
     */
    void
    resize(std::size_t racks)
    {
        itDemandW.assign(racks, 0.0);
        capW.assign(racks, 0.0);
        powerTouched.assign(racks, 1);
        itLoadW.assign(racks, 0.0);
        rechargeW.assign(racks, 0.0);
        inputOn.assign(racks, 1);
        held.assign(racks, 0);
        fullyCharged.assign(racks, 1);
        chargingBbus.assign(racks, 0);
        cvBbus.assign(racks, 0);
        setpointA.assign(racks, 0.0);
    }

    std::size_t size() const { return itLoadW.size(); }
};

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_FLEET_STATE_H_

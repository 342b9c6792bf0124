/**
 * @file
 * One server rack: IT load, priority, and the battery power shelf.
 *
 * A rack's input power draw is the sum of its IT load (while powered)
 * and its BBU recharge power. During an open transition the rack's
 * input power is cut: the IT load rides on the shelf's batteries; if
 * they run dry the rack browns out (a power outage for its servers).
 * Server power capping (Dynamo's last line of defense) is modelled as
 * a cap on the IT load.
 */

#ifndef DCBATT_POWER_RACK_H_
#define DCBATT_POWER_RACK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "battery/fleet_state.h"
#include "battery/power_shelf.h"
#include "power/priority.h"
#include "util/units.h"

namespace dcbatt::power {

class PowerTree;

/** IT load after capping: @p demand minus @p cap, floored at zero. */
inline util::Watts
cappedItLoad(util::Watts demand, util::Watts cap)
{
    return util::max(demand - cap, util::Watts(0.0));
}

/** A rack (leaf of the power hierarchy). */
class Rack
{
  public:
    /**
     * @param id      dense index, unique within a topology.
     * @param name    human-readable name ("msb0.sb1.rpp2.rack03").
     * @param priority service priority (drives the charging SLA).
     * @param policy  local charger policy shared across the fleet.
     * @param params  BBU calibration.
     */
    Rack(int id, std::string name, Priority priority,
         std::shared_ptr<const battery::ChargerPolicy> policy,
         battery::BbuParams params = {});

    /** Racks point into their own storage; they never move. */
    Rack(const Rack &) = delete;
    Rack &operator=(const Rack &) = delete;

    int id() const { return id_; }
    const std::string &name() const { return name_; }
    Priority priority() const { return priority_; }
    void setPriority(Priority p) { priority_ = p; }

    battery::PowerShelf &shelf() { return shelf_; }
    const battery::PowerShelf &shelf() const { return shelf_; }

    /** Demand the servers would draw uncapped (trace-driven). */
    util::Watts itDemand() const { return util::Watts(*itDemandW_); }
    /**
     * The single-rack demand mutation. A topology applies a whole
     * trace row through Topology::applyDemandRow() instead.
     */
    void
    setItDemand(util::Watts demand)
    {
        if (demand.value() != *itDemandW_) {
            *itDemandW_ = demand.value();
            markPowerDirty();
        }
    }

    /** Power cap currently imposed by the control plane (0 = none). */
    util::Watts capAmount() const { return util::Watts(*capW_); }
    /**
     * Cap the IT load by @p amount below demand. A meaningfully
     * negative amount is a precondition violation; sub-microwatt
     * negative dust is clamped to zero.
     */
    void setCapAmount(util::Watts amount);
    void
    uncap()
    {
        if (*capW_ != 0.0) {
            *capW_ = 0.0;
            markPowerDirty();
        }
    }

    /** IT load after capping (what the servers actually draw). */
    util::Watts itLoad() const
    {
        return cappedItLoad(itDemand(), capAmount());
    }

    bool inputPowerOn() const { return shelf_.inputPowerOn(); }
    void loseInputPower() { shelf_.loseInputPower(); }
    void restoreInputPower() { shelf_.restoreInputPower(); }

    /**
     * Total power drawn from the rack's tap box: IT load plus battery
     * recharge power while input power is on; zero while it is off
     * (the load is on batteries).
     */
    util::Watts inputPower() const
    {
        if (!inputPowerOn())
            return util::Watts(0.0);
        return itLoad() + shelf_.rechargePower();
    }

    /** Battery recharge component of the input power. */
    util::Watts rechargePower() const
    {
        return inputPowerOn() ? shelf_.rechargePower()
                              : util::Watts(0.0);
    }

    /**
     * Advance rack state by dt: battery discharge while input is off
     * (tracking delivered vs demanded energy for brown-out detection),
     * charging dynamics while on.
     */
    void step(util::Seconds dt);

    /**
     * Whether anything may have changed the rack's draw, cap, input
     * power or shelf state since the last clearPowerTouched(): set by
     * every path that invalidates the cached power aggregates above
     * the rack. Unlike the leaf's cache flag, a later read of the
     * aggregates does not reset it. A demand row stored through
     * Topology::applyDemandRow() does not set it either: that keeps
     * the rack's fleet row current itself.
     */
    bool powerTouched() const { return *powerTouched_ != 0; }
    void clearPowerTouched() { *powerTouched_ = 0; }

    /**
     * Whether the servers lost power at any point (batteries ran out
     * during an input-power loss). Sticky until clearOutageFlag().
     */
    bool sawOutage() const { return sawOutage_; }
    void clearOutageFlag() { sawOutage_ = false; }

    /**
     * Move the rack's demand, cap and touched flag into row id() of
     * @p fleet's storage columns, and wire up the tree leaf @p leaf it
     * feeds and the topology's "some rack was touched" flag; every
     * mutation of the rack's power draw then invalidates the cached
     * aggregates on the leaf-to-root path and raises the flag. A
     * free-standing rack (tests) keeps its own storage and runs
     * without either.
     */
    void attach(battery::FleetState &fleet, PowerTree &tree, int32_t leaf,
                bool *fleet_touched);

  private:
    /**
     * Invalidate the cached power sums above this rack and raise the
     * touched flags (if wired). Every mutation of the rack or its
     * shelf must come through here: Topology::stepRacks() skips whole
     * steps on the strength of the topology flag (DESIGN.md §16).
     */
    void markPowerDirty();

    int id_;
    std::string name_;
    Priority priority_;
    battery::PowerShelf shelf_;
    PowerTree *tree_ = nullptr;
    int32_t leaf_ = -1;
    bool *fleetTouched_ = nullptr;
    /**
     * Demand and cap in watts and the touched flag: the rack's row of
     * the topology's storage columns once attached, the fields below
     * before.
     */
    double *itDemandW_ = &ownItDemandW_;
    double *capW_ = &ownCapW_;
    uint8_t *powerTouched_ = &ownPowerTouched_;
    double ownItDemandW_ = 0.0;
    double ownCapW_ = 0.0;
    uint8_t ownPowerTouched_ = 1;
    bool sawOutage_ = false;
};

} // namespace dcbatt::power

#endif // DCBATT_POWER_RACK_H_

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

#include <cstddef>
#include <memory>
#include <string>

#include "battery/power_shelf.h"
#include "power/priority.h"
#include "util/units.h"

namespace dcbatt::power {

class PowerNode;

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

    int id() const { return id_; }
    const std::string &name() const { return name_; }
    Priority priority() const { return priority_; }
    void setPriority(Priority p) { priority_ = p; }

    battery::PowerShelf &shelf() { return shelf_; }
    const battery::PowerShelf &shelf() const { return shelf_; }

    /** Demand the servers would draw uncapped (trace-driven). */
    util::Watts itDemand() const { return itDemand_; }
    void
    setItDemand(util::Watts demand)
    {
        if (demand.value() != itDemand_.value()) {
            itDemand_ = demand;
            markPowerDirty();
        }
    }

    /** Power cap currently imposed by the control plane (0 = none). */
    util::Watts capAmount() const { return capAmount_; }
    /**
     * Cap the IT load by @p amount below demand. A meaningfully
     * negative amount is a precondition violation; sub-microwatt
     * negative dust is clamped to zero.
     */
    void setCapAmount(util::Watts amount);
    void
    uncap()
    {
        if (capAmount_.value() != 0.0) {
            capAmount_ = util::Watts(0.0);
            markPowerDirty();
        }
    }

    /** IT load after capping (what the servers actually draw). */
    util::Watts itLoad() const
    {
        return util::max(itDemand_ - capAmount_, util::Watts(0.0));
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
     * the rack. Unlike the leaf node's cache flag, a later read of the
     * aggregates does not reset it.
     */
    bool powerTouched() const { return powerTouched_; }
    void clearPowerTouched() { powerTouched_ = false; }

    /**
     * Batched stepping, part 1: stage this rack's lockstep charge lane
     * if the shelf's next step qualifies (see PowerShelf). A rack that
     * stages a lane must complete the step with applyBatchLane()
     * instead of step().
     */
    battery::BatchLaneKind
    tryExportBatchLane(util::Seconds dt,
                       battery::BatchChargeStage &stage)
    {
        return shelf_.tryExportBatchLane(dt, stage);
    }

    /**
     * Batched stepping, part 2: adopt the lane outputs and perform
     * step()'s bookkeeping for that path. Eligibility implies input
     * power is on (no outage check) and charging was active (the
     * cached power aggregates above this rack go stale).
     */
    void
    applyBatchLane(battery::BatchLaneKind kind, std::size_t lane,
                   const battery::BatchChargeStage &stage)
    {
        shelf_.applyBatchLane(kind, lane, stage);
        markPowerDirty();
    }

    /**
     * Whether the servers lost power at any point (batteries ran out
     * during an input-power loss). Sticky until clearOutageFlag().
     */
    bool sawOutage() const { return sawOutage_; }
    void clearOutageFlag() { sawOutage_ = false; }

    /**
     * Wire up the topology leaf node this rack feeds and the
     * topology's "some rack was touched" flag; every mutation of the
     * rack's power draw then invalidates the cached aggregates on the
     * leaf-to-root path and raises the flag. A free-standing rack
     * (tests) runs without either.
     */
    void
    attachNode(PowerNode *node, bool *fleet_touched)
    {
        node_ = node;
        fleetTouched_ = fleet_touched;
    }

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
    PowerNode *node_ = nullptr;
    bool *fleetTouched_ = nullptr;
    util::Watts itDemand_{0.0};
    util::Watts capAmount_{0.0};
    bool sawOutage_ = false;
    bool powerTouched_ = true;
};

} // namespace dcbatt::power

#endif // DCBATT_POWER_RACK_H_

#include "power/rack.h"

#include "power/topology.h"
#include "util/check.h"

namespace dcbatt::power {

using util::Seconds;
using util::Watts;

Rack::Rack(int id, std::string name, Priority priority,
           std::shared_ptr<const battery::ChargerPolicy> policy,
           battery::BbuParams params)
    : id_(id), name_(std::move(name)), priority_(priority),
      shelf_(std::move(policy), params)
{
    // Shelf-level mutations (overrides, holds, failures, input-power
    // transitions) change this rack's draw; propagate them to the
    // cached topology aggregates. Racks live behind stable unique_ptrs
    // in Topology, so capturing `this` is safe.
    shelf_.setDirtyCallback([this] { markPowerDirty(); });
}

void
Rack::attach(battery::FleetState &fleet, PowerTree &tree, int32_t leaf,
             bool *fleet_touched)
{
    auto row = static_cast<size_t>(id_);
    DCBATT_REQUIRE(row < fleet.size(), "rack %s: no fleet row %d",
                   name_.c_str(), id_);
    fleet.itDemandW[row] = *itDemandW_;
    fleet.capW[row] = *capW_;
    fleet.powerTouched[row] = *powerTouched_;
    itDemandW_ = &fleet.itDemandW[row];
    capW_ = &fleet.capW[row];
    powerTouched_ = &fleet.powerTouched[row];
    tree_ = &tree;
    leaf_ = leaf;
    fleetTouched_ = fleet_touched;
}

void
Rack::markPowerDirty()
{
    *powerTouched_ = 1;
    if (tree_) {
        tree_->invalidate(leaf_);
        *fleetTouched_ = true;
    }
}

void
Rack::setCapAmount(Watts amount)
{
    // A meaningfully negative cap is a control-plane bug, not a value
    // to clamp silently; tolerate only floating-point dust from the
    // capping engine's ledger arithmetic.
    DCBATT_REQUIRE(amount.value() >= -1e-6,
                   "negative cap %g W on rack %s", amount.value(),
                   name_.c_str());
    Watts clamped = util::max(amount, Watts(0.0));
    if (clamped.value() != *capW_) {
        *capW_ = clamped.value();
        markPowerDirty();
    }
}

void
Rack::step(Seconds dt)
{
    // Charging progress changes the recharge draw, so an active step
    // dirties the cached aggregates. Evaluated before stepping: the
    // step on which the last BBU completes must still invalidate.
    bool was_active = inputPowerOn() && shelf_.anyCharging();
    Watts carried = shelf_.step(dt, itLoad());
    if (!inputPowerOn() && carried + Watts(1e-6) < itLoad())
        sawOutage_ = true;
    if (was_active)
        markPowerDirty();
}

} // namespace dcbatt::power

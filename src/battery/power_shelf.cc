#include "battery/power_shelf.h"

#include <algorithm>

#include "util/check.h"

namespace dcbatt::battery {

using util::Amperes;
using util::Seconds;
using util::Watts;

PowerShelf::PowerShelf(std::shared_ptr<const ChargerPolicy> policy,
                       BbuParams params)
    : params_(params), policy_(std::move(policy))
{
    DCBATT_REQUIRE(policy_ != nullptr, "null charger policy");
    DCBATT_REQUIRE(params_.bbusPerRack > 0 && params_.zonesPerRack > 0
                       && params_.bbusPerRack % params_.zonesPerRack
                           == 0,
                   "bad shelf geometry: %d BBUs in %d zones",
                   params_.bbusPerRack, params_.zonesPerRack);
    bbus_.assign(static_cast<size_t>(params_.bbusPerRack),
                 BbuModel(params_));
    healthy_.assign(bbus_.size(), true);
    rebuildZoneMembers();
}

int
PowerShelf::zoneOf(int index) const
{
    int per_zone = params_.bbusPerRack / params_.zonesPerRack;
    return index / per_zone;
}

void
PowerShelf::rebuildZoneMembers()
{
    zoneMembers_.assign(static_cast<size_t>(params_.zonesPerRack), {});
    healthyTotal_ = 0;
    for (int i = 0; i < bbuCount(); ++i) {
        if (healthy_[static_cast<size_t>(i)]) {
            zoneMembers_[static_cast<size_t>(zoneOf(i))].push_back(i);
            ++healthyTotal_;
        }
    }
}

void
PowerShelf::loseInputPower()
{
    inputOn_ = false;
    markDirty();
}

Amperes
PowerShelf::effectiveCurrentFor(const BbuModel &bbu) const
{
    if (override_)
        return *override_;
    return policy_->initialCurrent(bbu.dod());
}

void
PowerShelf::restoreInputPower()
{
    if (inputOn_)
        return;
    inputOn_ = true;
    evictLane();
    for (int i = 0; i < bbuCount(); ++i) {
        auto idx = static_cast<size_t>(i);
        if (!healthy_[idx])
            continue;
        BbuModel &bbu = bbus_[idx];
        if (!bbu.fullyCharged()) {
            bbu.startCharging(effectiveCurrentFor(bbu));
            bbu.setPaused(held_);
        }
    }
    markDirty();
}

Watts
PowerShelf::step(Seconds dt, Watts it_load)
{
    if (dt.value() <= 0.0)
        return inputOn_ ? it_load : Watts(0.0);
    evictLane();
    if (inputOn_) {
        // Quiescent fast path: with nothing charging, stepping every
        // BBU is a no-op walk — skip it and keep the aggregates valid.
        if (tryQuiescentStep(dt))
            return it_load;
        ++stepStats_.fullSteps;
        for (int i = 0; i < bbuCount(); ++i) {
            auto idx = static_cast<size_t>(i);
            if (healthy_[idx])
                bbus_[idx].step(dt);
        }
        aggValid_ = false;
        return it_load;
    }
    // Input power off: each zone's healthy BBUs share half the rack
    // load. A zone whose batteries are empty drops its share (a rack
    // power outage for those servers). Two passes over the precomputed
    // zone membership — count the live packs, then discharge them —
    // with no per-step allocation; discharging pack i only mutates
    // pack i, so the second pass sees the same live set the first
    // counted.
    Watts carried(0.0);
    Watts zone_load = it_load / static_cast<double>(params_.zonesPerRack);
    for (int zone = 0; zone < params_.zonesPerRack; ++zone) {
        const std::vector<int> &members =
            zoneMembers_[static_cast<size_t>(zone)];
        size_t live = 0;
        for (int i : members) {
            if (!bbus_[static_cast<size_t>(i)].fullyDischarged())
                ++live;
        }
        if (live == 0)
            continue;
        Watts share = zone_load / static_cast<double>(live);
        // Respect the per-BBU discharge rating; overflow beyond the
        // rating is dropped (brown-out) rather than silently carried.
        share = util::min(share, params_.maxDischargePower);
        for (int i : members) {
            BbuModel &pack = bbus_[static_cast<size_t>(i)];
            if (pack.fullyDischarged())
                continue;
            util::Joules delivered = pack.discharge(share, dt);
            carried += delivered / dt;
        }
    }
    aggValid_ = false;
    // Energy conservation: the shelf never delivers more power than
    // the servers asked for (it can deliver less — a brown-out).
    DCBATT_ASSERT(carried <= it_load + Watts(1e-6),
                  "shelf delivered %.6f W against %.6f W of load",
                  carried.value(), it_load.value());
    return carried;
}

void
PowerShelf::setOverride(Amperes current)
{
    Amperes clamped = util::clamp(current, params_.minCurrent,
                                  params_.maxCurrent);
    override_ = clamped;
    evictLane();
    for (int i = 0; i < bbuCount(); ++i) {
        auto idx = static_cast<size_t>(i);
        if (healthy_[idx] && bbus_[idx].charging())
            bbus_[idx].setSetpoint(clamped);
    }
    markDirty();
}

void
PowerShelf::clearOverride()
{
    override_.reset();
    markDirty();
}

void
PowerShelf::holdCharging()
{
    held_ = true;
    evictLane();
    for (int i = 0; i < bbuCount(); ++i) {
        auto idx = static_cast<size_t>(i);
        if (healthy_[idx] && bbus_[idx].charging())
            bbus_[idx].setPaused(true);
    }
    markDirty();
}

void
PowerShelf::resumeCharging()
{
    held_ = false;
    evictLane();
    for (int i = 0; i < bbuCount(); ++i) {
        auto idx = static_cast<size_t>(i);
        if (healthy_[idx] && bbus_[idx].charging())
            bbus_[idx].setPaused(false);
    }
    markDirty();
}

void
PowerShelf::refreshAggregates() const
{
    int charging = 0;
    int cv = 0;
    int discharged = 0;
    int healthy = 0;
    Watts recharge(0.0);
    Amperes setpoint(0.0);
    double dod_max = 0.0;
    double dod_sum = 0.0;
    for (int i = 0; i < bbuCount(); ++i) {
        auto idx = static_cast<size_t>(i);
        if (!healthy_[idx])
            continue;
        const BbuModel &bbu = bbus_[idx];
        ++healthy;
        recharge += bbu.inputPower();
        dod_max = std::max(dod_max, bbu.dod());
        dod_sum += bbu.dod();
        if (bbu.charging()) {
            ++charging;
            if (bbu.inCvPhase())
                ++cv;
            // Paused (postponed) packs draw nothing; reporting their
            // stored setpoint would make the control plane believe
            // relief is still in flight forever.
            if (!bbu.paused())
                setpoint = util::max(setpoint, bbu.setpoint());
        } else if (!bbu.fullyCharged()) {
            ++discharged;
        }
    }
    chargingN_ = charging;
    cvN_ = cv;
    dischargedN_ = discharged;
    healthyN_ = healthy;
    rechargeSumW_ = recharge.value();
    chargeSetpointA_ = setpoint.value();
    maxDodCache_ = dod_max;
    dodSum_ = dod_sum;
    aggValid_ = true;
}

bool
PowerShelf::canCarryLoad() const
{
    for (int zone = 0; zone < params_.zonesPerRack; ++zone) {
        const std::vector<int> &members =
            zoneMembers_[static_cast<size_t>(zone)];
        if (members.empty())
            return false;
        bool zone_ok = false;
        for (int i : members) {
            if (!bbus_[static_cast<size_t>(i)].fullyDischarged()) {
                zone_ok = true;
                break;
            }
        }
        if (!zone_ok)
            return false;
    }
    return true;
}

void
PowerShelf::failBbu(int index)
{
    const size_t idx = packAt(index);
    evictLane();
    healthy_[idx] = false;
    rebuildZoneMembers();
    markDirty();
}

void
PowerShelf::repairBbu(int index)
{
    const size_t idx = packAt(index);
    evictLane();
    healthy_[idx] = true;
    bbus_[idx].reset();
    rebuildZoneMembers();
    markDirty();
}

void
PowerShelf::forceUniformDod(double dod)
{
    evictLane();
    for (int i = 0; i < bbuCount(); ++i) {
        auto idx = static_cast<size_t>(i);
        if (healthy_[idx])
            bbus_[idx].forceDod(dod);
    }
    markDirty();
}

} // namespace dcbatt::battery

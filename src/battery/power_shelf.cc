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
PowerShelf::materializeTwins() const
{
    if (!lockstep_)
        return;
    evictLane();
    lockstep_ = false;
    ++stepStats_.materializations;
    auto &self = const_cast<PowerShelf &>(*this);
    const BbuModel &rep = bbus_[repIdx_];
    for (int i = 0; i < bbuCount(); ++i) {
        auto idx = static_cast<size_t>(i);
        if (idx == repIdx_ || !healthy_[idx])
            continue;
        self.bbus_[idx].adoptStateFrom(rep);
    }
}

const BbuModel &
PowerShelf::representative() const
{
    if (lockstep_) {
        if (lanes_)
            lanes_->materialize(laneRow_);
        return bbus_[repIdx_];
    }
    for (size_t i = 0; i < bbus_.size(); ++i) {
        if (healthy_[i])
            return bbus_[i];
    }
    return bbus_.front();
}

const std::vector<int> &
PowerShelf::healthyInZone(int zone) const
{
    DCBATT_REQUIRE(zone >= 0 && zone < params_.zonesPerRack,
                   "zone %d outside [0, %d)", zone,
                   params_.zonesPerRack);
    return zoneMembers_[static_cast<size_t>(zone)];
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
    materializeTwins();
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
    if (inputOn_) {
        // Quiescent fast path: with nothing charging, stepping every
        // BBU is a no-op walk — skip it and keep the aggregates valid.
        if (tryQuiescentStep(dt))
            return it_load;
        evictLane();
        if (lockstep_) {
            ++stepStats_.lockstepSteps;
            // Every healthy pack is a bit-equal twin of the
            // representative: integrating it advances them all (the
            // replicas stay stale until materializeTwins()).
            bbus_[repIdx_].step(dt);
            aggValid_ = false;
            return it_load;
        }
        // Twin fast-forward: a shelf's packs are built identically and
        // in the common flow discharge and recharge in lockstep, so
        // most steps integrate six bit-equal packs. Integrate one
        // representative and copy its post-step state into every pack
        // whose pre-step state matches bit-for-bit; the integrator is
        // deterministic, so the copy equals re-integrating exactly.
        // When the whole shelf moved as twins, enter lockstep mode and
        // stop touching the replicas from the next step on.
        ++stepStats_.fullSteps;
        bool have_rep = false;
        bool all_twins = true;
        size_t rep_idx = 0;
        BbuModel::ChargeState pre{};
        const BbuModel *post = nullptr;
        for (int i = 0; i < bbuCount(); ++i) {
            auto idx = static_cast<size_t>(i);
            if (!healthy_[idx])
                continue;
            BbuModel &pack = bbus_[idx];
            if (have_rep && pack.matches(pre)) {
                pack.adoptStateFrom(*post);
                continue;
            }
            if (have_rep)
                all_twins = false;
            else
                rep_idx = idx;
            pre = pack.chargeState();
            pack.step(dt);
            post = &pack;
            have_rep = true;
        }
        if (have_rep && all_twins) {
            lockstep_ = true;
            repIdx_ = rep_idx;
        }
        aggValid_ = false;
        return it_load;
    }
    materializeTwins();
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
    materializeTwins();
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
    materializeTwins();
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
    materializeTwins();
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
    if (lockstep_) {
        // Every healthy pack bit-equals the representative. The
        // counting aggregates are healthyTotal_ copies of one
        // predicate, evaluated once; the sums are lockstepSum()s.
        const BbuModel &rep = bbus_[repIdx_];
        const double rep_dod = rep.dod();
        dod_sum = lockstepSum(rep_dod);
        healthy = healthyTotal_;
        recharge = Watts(lockstepSum(rep.inputPower().value()));
        if (healthyTotal_ > 0) {
            dod_max = std::max(dod_max, rep_dod);
            if (rep.charging()) {
                charging = healthyTotal_;
                if (rep.inCvPhase())
                    cv = healthyTotal_;
                if (!rep.paused())
                    setpoint = util::max(setpoint, rep.setpoint());
            } else if (!rep.fullyCharged()) {
                discharged = healthyTotal_;
            }
        }
    } else {
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
                // Paused (postponed) packs draw nothing; reporting
                // their stored setpoint would make the control plane
                // believe relief is still in flight forever.
                if (!bbu.paused())
                    setpoint = util::max(setpoint, bbu.setpoint());
            } else if (!bbu.fullyCharged()) {
                ++discharged;
            }
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
        if (lockstep_) {
            // Twins: one pack answers for the whole zone.
            if (bbus_[repIdx_].fullyDischarged())
                return false;
            continue;
        }
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
    materializeTwins();
    healthy_[idx] = false;
    rebuildZoneMembers();
    markDirty();
}

void
PowerShelf::repairBbu(int index)
{
    const size_t idx = packAt(index);
    materializeTwins();
    healthy_[idx] = true;
    bbus_[idx].reset();
    rebuildZoneMembers();
    markDirty();
}

void
PowerShelf::forceUniformDod(double dod)
{
    materializeTwins();
    for (int i = 0; i < bbuCount(); ++i) {
        auto idx = static_cast<size_t>(i);
        if (healthy_[idx])
            bbus_[idx].forceDod(dod);
    }
    markDirty();
}

} // namespace dcbatt::battery

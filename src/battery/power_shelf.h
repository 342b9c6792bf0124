/**
 * @file
 * Rack power shelf: the six BBUs behind a rack's two power zones.
 *
 * An Open Rack V2 rack has two identical power zones, each fed by three
 * PSU+BBU pairs in a 2+1 redundant arrangement. During an open
 * transition the healthy BBUs of each zone share the zone's IT load;
 * when input power returns, each discharged BBU starts charging at the
 * setpoint chosen by the shelf's local ChargerPolicy (original or
 * variable), until/unless the control plane issues a manual override.
 *
 * The shelf is the unit the Dynamo agent talks to: it reports the
 * aggregate recharge (wall) power and accepts a single override current
 * that is applied to every charging BBU, exactly like the deployed
 * hardware.
 *
 * A charging shelf steps each healthy pack with BbuModel::step(). The
 * shelves whose packs move as one are stepped as resident charge lanes
 * instead (battery/charge_lanes.h, DESIGN.md §16), which own their
 * state while resident; every path that changes pack state outside a
 * lane step evicts the lane first.
 */

#ifndef DCBATT_BATTERY_POWER_SHELF_H_
#define DCBATT_BATTERY_POWER_SHELF_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "battery/bbu.h"
#include "battery/charge_lanes.h"
#include "battery/charger_policy.h"
#include "util/check.h"
#include "util/units.h"

namespace dcbatt::battery {

/** The battery side of one rack (6 BBUs in 2 zones). */
class PowerShelf
{
  public:
    /**
     * @param policy local charging policy; shared so that a fleet of
     *        racks can reference one policy object.
     * @param params BBU calibration (also defines the shelf geometry).
     */
    explicit PowerShelf(std::shared_ptr<const ChargerPolicy> policy,
                        BbuParams params = {});

    const BbuParams &params() const { return params_; }

    /** Whether rack input power is currently available. */
    bool inputPowerOn() const { return inputOn_; }

    /** Cut rack input power (start of an open transition / outage). */
    void loseInputPower();

    /**
     * Restore rack input power. Discharged BBUs begin charging at the
     * policy's DOD-dependent setpoint.
     */
    void restoreInputPower();

    /**
     * Advance the shelf by dt. While input power is off, the healthy
     * BBUs in each zone share @p it_load; while on, charging BBUs
     * advance their CC-CV dynamics.
     * @returns the IT power actually carried (less than it_load when
     *          batteries run out — a rack power outage).
     */
    util::Watts step(util::Seconds dt, util::Watts it_load);

    /**
     * step()'s quiescent fast path on its own: when input power is on
     * and nothing is charging, step(dt) changes nothing but its
     * quiescentSteps count. This counts the step the same way and
     * returns true; otherwise it changes nothing and returns false.
     */
    bool
    tryQuiescentStep(util::Seconds dt)
    {
        if (dt.value() <= 0.0 || !inputOn_)
            return false;
        ensureAggregates();
        if (chargingN_ != 0)
            return false;
        ++stepStats_.quiescentSteps;
        return true;
    }

    /**
     * Manual override: set all charging BBUs' CC setpoint (clamped to
     * the 1–5 A hardware range). Also applies to BBUs that *start*
     * charging later while the override is active.
     */
    void setOverride(util::Amperes current);

    /** Clear the override; future charge starts use the local policy. */
    void clearOverride();

    bool overrideActive() const { return override_.has_value(); }

    /**
     * Postponed charging (the paper's future-work extension): hold
     * pauses every charging BBU (and any that starts charging while
     * the hold is active); resume releases them. Holding trades
     * redundancy-restoration time for recharge power.
     */
    void holdCharging();
    void resumeCharging();
    bool chargingHeld() const { return held_; }

    /** Aggregate wall power drawn by charging BBUs. */
    util::Watts rechargePower() const
    {
        if (laneResident())
            return util::Watts(lanes_->rechargeW(laneRow_));
        ensureAggregates();
        return util::Watts(rechargeSumW_);
    }

    /**
     * Present CC setpoint of the charging BBUs (max across them; they
     * are uniform in practice). Zero when nothing is charging.
     */
    util::Amperes chargeSetpoint() const
    {
        ensureAggregates();
        return util::Amperes(chargeSetpointA_);
    }

    /** Maximum DOD across BBUs (the controller's per-rack estimate). */
    double maxDod() const
    {
        if (laneResident())
            return std::max(0.0, lanes_->dod(laneRow_));
        ensureAggregates();
        return maxDodCache_;
    }

    /** Mean DOD across healthy BBUs. */
    double meanDod() const
    {
        if (laneResident())
            return lockstepSum(lanes_->dod(laneRow_)) / healthyN_;
        ensureAggregates();
        return healthyN_ ? dodSum_ / healthyN_ : 0.0;
    }

    bool
    fullyCharged() const
    {
        return chargingCount() == 0 && dischargedCount() == 0;
    }

    /** Whether any BBU is currently charging. */
    bool anyCharging() const { return chargingCount() > 0; }

    int chargingCount() const
    {
        ensureAggregates();
        return chargingN_;
    }
    /** Charging BBUs in the constant-voltage phase. */
    int cvCount() const
    {
        ensureAggregates();
        return cvN_;
    }
    int dischargedCount() const
    {
        ensureAggregates();
        return dischargedN_;
    }

    /**
     * Whether the shelf can still power the rack with input off: every
     * zone needs at least one healthy, non-empty BBU.
     */
    bool canCarryLoad() const;

    /** Fail a BBU (dropped from load sharing and charging). */
    void failBbu(int index);
    /** Repair a previously failed BBU (returns fully charged). */
    void repairBbu(int index);
    bool bbuHealthy(int index) const { return healthy_[packAt(index)]; }

    /** BBU @p index; a resident lane writes its state in, and stays. */
    const BbuModel &
    bbu(int index) const
    {
        const size_t idx = packAt(index);
        if (lanes_)
            lanes_->materialize(laneRow_);
        return bbus_[idx];
    }
    BbuModel &
    bbu(int index)
    {
        const size_t idx = packAt(index);
        // The caller may mutate the BBU through this reference, so
        // evict the lane and report the shelf's aggregates as stale.
        markDirty();
        return bbus_[idx];
    }
    int bbuCount() const { return static_cast<int>(bbus_.size()); }

    /** Force every healthy BBU to the same DOD (test/bench helper). */
    void forceUniformDod(double dod);

    /**
     * Tally of how the per-step integrator ran, kept as plain members
     * so the hot loop pays one increment and the observability layer
     * can fold the totals into the metrics registry once per event
     * (see runChargingEvent) instead of per step.
     */
    struct StepStats
    {
        uint64_t quiescentSteps = 0; ///< nothing charging, walk skipped
        uint64_t lockstepSteps = 0;  ///< stepped as a resident lane
        uint64_t fullSteps = 0;      ///< charging, each pack stepped
    };
    StepStats
    stepStats() const
    {
        StepStats stats = stepStats_;
        if (skippedSteps_)
            stats.quiescentSteps += *skippedSteps_;
        if (laneResident())
            stats.lockstepSteps += lanes_->unsyncedSteps(laneRow_);
        return stats;
    }

    /**
     * Count @p *skipped as quiescent steps of this shelf too: the
     * owning topology skips a step as a whole, without visiting any
     * shelf, only when every shelf would take the quiescent path
     * (Topology::stepRacks), so its counter is each shelf's share.
     */
    void
    shareSkippedSteps(const uint64_t *skipped)
    {
        skippedSteps_ = skipped;
    }

    /**
     * Register a callback fired whenever the shelf's aggregate power
     * may have changed (override/hold/fail/repair/input transitions,
     * mutable BBU access). The power topology uses this to invalidate
     * its cached subtree sums; per-step charging progress is handled
     * by Rack::step and the charge lanes themselves. At most one
     * callback is supported.
     */
    void setDirtyCallback(std::function<void()> cb)
    {
        dirtyCallback_ = std::move(cb);
    }

    /**
     * Make this shelf row @p row of @p lanes, which own its state while
     * it is resident; every path that changes pack state outside a lane
     * step first evicts its lane (DESIGN.md §16).
     */
    void
    attachLanes(ChargeLanes &lanes, std::size_t row)
    {
        lanes_ = &lanes;
        laneRow_ = row;
    }

  private:
    /** The lane table admits, reads and writes back lockstep shelves. */
    friend class ChargeLanes;

    void
    evictLane() const
    {
        if (lanes_)
            lanes_->evict(laneRow_);
    }

    bool laneResident() const { return lanes_ && lanes_->resident(laneRow_); }

    /** Repeated addition over the healthy packs: the walk's sum. */
    double
    lockstepSum(double x) const
    {
        double sum = 0.0;
        for (int k = 0; k < healthyTotal_; ++k)
            sum += x;
        return sum;
    }

    /** @p index as a pack index; a precondition that it is one. */
    size_t
    packAt(int index) const
    {
        DCBATT_REQUIRE(index >= 0 && index < bbuCount(),
                       "BBU index %d outside [0, %d)", index,
                       bbuCount());
        return static_cast<size_t>(index);
    }
    int zoneOf(int index) const;
    util::Amperes effectiveCurrentFor(const BbuModel &bbu) const;
    void rebuildZoneMembers();

    void
    markDirty()
    {
        evictLane();
        aggValid_ = false;
        if (dirtyCallback_)
            dirtyCallback_();
    }

    /**
     * One walk over the healthy BBUs recomputing every cached
     * aggregate, with each field accumulated by exactly the expression
     * its per-read walk originally used (same BBU order, same
     * operations), so cached reads are bit-identical to cold walks.
     */
    void refreshAggregates() const;

    void
    ensureAggregates() const
    {
        if (!aggValid_)
            refreshAggregates();
    }

    BbuParams params_;
    std::shared_ptr<const ChargerPolicy> policy_;
    std::vector<BbuModel> bbus_;
    std::vector<bool> healthy_;
    /** Healthy BBU indices per zone (rebuilt on fail/repair). */
    std::vector<std::vector<int>> zoneMembers_;
    std::optional<util::Amperes> override_;
    bool held_ = false;
    bool inputOn_ = true;
    std::function<void()> dirtyCallback_;
    ChargeLanes *lanes_ = nullptr;
    std::size_t laneRow_ = 0;

    /** Healthy pack count (maintained by rebuildZoneMembers). */
    int healthyTotal_ = 0;

    /** Cached aggregates over the healthy BBUs (refreshAggregates). */
    mutable bool aggValid_ = false;
    mutable int chargingN_ = 0;
    mutable int cvN_ = 0;
    mutable int dischargedN_ = 0;
    mutable int healthyN_ = 0;
    mutable double rechargeSumW_ = 0.0;
    mutable double chargeSetpointA_ = 0.0;
    mutable double maxDodCache_ = 0.0;
    mutable double dodSum_ = 0.0;

    /** Last: keeps the hot aggregate block's layout unchanged. */
    mutable StepStats stepStats_;
    const uint64_t *skippedSteps_ = nullptr;
};

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_POWER_SHELF_H_

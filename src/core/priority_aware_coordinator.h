/**
 * @file
 * The paper's contribution: the coordinated priority-aware battery
 * charging algorithm (Algorithm 1 plus the overload response of
 * Section IV-C).
 *
 * At the start of a charging event, every charging rack is initialized
 * to the 1 A floor; racks are then visited in
 * highest-priority-lowest-discharge-first order and granted their SLA
 * charging current (Fig. 9b) while the breaker's available power
 * lasts. This order meets higher-priority SLAs first, and within a
 * priority maximizes the number of racks whose SLA fits the budget
 * (the lowest-DOD racks need the least current).
 *
 * While charging, any detected overload is answered by demoting racks
 * to the 1 A floor in the reverse (lowest-priority-highest-discharge-
 * first) order until the projected power fits. Server capping — the
 * control plane's last resort — only happens when everything is
 * already at the floor.
 *
 * Ablation knobs (all default to the paper's behaviour):
 *  - strictGreedy: stop at the first rack whose SLA does not fit
 *    (Algorithm 1 as written) vs. skip it and keep trying smaller
 *    requests.
 *  - restoreOnHeadroom: re-grant demoted racks when headroom returns.
 */

#ifndef DCBATT_CORE_PRIORITY_AWARE_COORDINATOR_H_
#define DCBATT_CORE_PRIORITY_AWARE_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sla_current.h"
#include "dynamo/coordinator.h"

namespace dcbatt::core {

/** Behaviour switches for the ablation benches. */
struct PriorityAwareOptions
{
    /** Stop granting at the first rack that does not fit (paper). */
    bool strictGreedy = true;
    /** Re-grant demoted racks when headroom returns (extension). */
    bool restoreOnHeadroom = false;
    /** Headroom (watts) kept in reserve when re-granting. */
    util::Watts restoreMargin = util::kilowatts(20.0);
    /** Sort key ablations: ignore DOD (priority only) or priority. */
    bool ignoreDod = false;
    bool ignorePriority = false;

    /**
     * Postponed charging (the paper's future-work extension): when
     * even the 1 A floors do not fit the available power, hold
     * (postpone) racks in reverse order instead of capping servers,
     * and resume them as racks finish and headroom returns.
     */
    bool allowPostponement = false;
    /**
     * Headroom kept in reserve when resuming postponed racks. Too
     * small risks resume/hold ping-pong on trace noise; too large
     * strands held racks on breakers that run close to their limit.
     */
    util::Watts resumeMargin = util::kilowatts(2.0);
};

/** Hit/miss/eviction counters of the SLA-current memo. */
struct SlaMemoStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    /** Full-table clears (each drops every entry at once). */
    uint64_t evictions = 0;
    /** High-water mark of live entries (occupancy telemetry). */
    uint64_t peakOccupancy = 0;
};

/** Algorithm 1 + reverse-order overload throttling. */
class PriorityAwareCoordinator : public dynamo::ChargingCoordinator
{
  public:
    /**
     * Memo capacity: ~2^32 DOD buckets exist per priority, so an
     * adversarial DOD stream could otherwise grow the table without
     * bound inside a long sweep process. 4096 entries cover every
     * fleet the experiments run (#racks distinct DODs per event) with
     * two orders of magnitude of slack.
     */
    static constexpr size_t kSlaMemoCapacity = 4096;

    PriorityAwareCoordinator(SlaCurrentCalculator calculator,
                             PriorityAwareOptions options = {});

    std::string name() const override { return "priority-aware"; }

    std::vector<dynamo::OverrideCommand>
    planInitial(const std::vector<dynamo::RackChargeInfo> &racks,
                util::Watts available_power) override;

    std::vector<dynamo::OverrideCommand>
    onTick(const std::vector<dynamo::RackChargeInfo> &racks,
           util::Watts headroom) override;

    const SlaCurrentCalculator &calculator() const { return calc_; }

    /** Per-rack plan state (see planStates()). */
    struct RackPlanState
    {
        /** Last commanded current (valid when hasCommand). */
        util::Amperes commanded{0.0};
        /** SLA current computed by planInitial (valid when hasSla). */
        util::Amperes sla{0.0};
        bool hasCommand = false;
        bool hasSla = false;
        /** Postponed (held at zero) by the coordinator. */
        bool held = false;
    };

    /**
     * Plan state after the last plan/tick, indexed by rack id (rack
     * ids are dense fleet row indices). Racks past the largest id the
     * coordinator has seen have no entry; entries with neither
     * hasCommand nor held set are untouched racks.
     */
    const std::vector<RackPlanState> &planStates() const
    {
        return plan_;
    }

    /** SLA-current memo counters since construction. */
    const SlaMemoStats &slaMemoStats() const { return memoStats_; }

    /** Full sorts of the grant order since construction. */
    uint64_t grantOrderSorts() const { return orderSorts_; }

  private:
    /**
     * The charging racks of @p racks sorted (priority asc, DOD asc,
     * id) honoring the ablation knobs: the sequence std::sort gives on
     * the charging racks. The key does not move during an event, so
     * the full order of the last call is kept and confirmed by one
     * strict pass; only a failed pass (new racks or DODs, or a tie)
     * sorts again, and the kept order is filtered by `charging`.
     * Returns a reference to orderBuf_ (reused, so the tick path does
     * not allocate), invalidated by the next grantOrder call.
     */
    const std::vector<const dynamo::RackChargeInfo *> &
    grantOrder(const std::vector<dynamo::RackChargeInfo> &racks) const;

    /**
     * SLA current for (DOD, priority), memoized per (priority, DOD
     * bucket of 1e-6) so the charge-time bisection runs at most once
     * per bucket instead of once per rack per plan — fleets cluster
     * around few distinct DODs, and repeated charging events re-plan
     * with the same inputs every event. The bucketing error (DOD
     * rounded to the nearest 1e-6) moves the resulting current by
     * microamperes, far below the hardware's command resolution.
     *
     * The memo is bounded at kSlaMemoCapacity entries: on overflow the
     * whole table is cleared (deterministic, order-independent — an
     * LRU chain would make the retained set depend on rack visit
     * order). A clear costs at most one re-bisection per live bucket.
     */
    util::Amperes slaCurrentFor(double dod, power::Priority p) const;

    battery::BbuParams bbuParams() const
    {
        return calc_.model().params();
    }

    /** Grow-on-demand access to a rack's plan entry. */
    RackPlanState &stateFor(int rack_id);
    /** Read access; null when the rack has no entry yet. */
    const RackPlanState *stateAt(int rack_id) const;

    SlaCurrentCalculator calc_;
    PriorityAwareOptions options_;
    /** Reused grant-order buffer (see grantOrder). */
    mutable std::vector<const dynamo::RackChargeInfo *> orderBuf_;
    /** Every rack of the last snapshot in grant order, as indices. */
    mutable std::vector<uint32_t> fullOrder_;
    mutable uint64_t orderSorts_ = 0;
    /** Memo for slaCurrentFor: (priority, DOD bucket) -> current. */
    mutable std::unordered_map<uint64_t, util::Amperes> slaMemo_;  // detlint: allow(unordered-container) -- memo cache, keyed lookup only
    mutable SlaMemoStats memoStats_;
    /**
     * Plan state indexed by rack id. A dense vector, not a map: the
     * tick path probes commanded/held several times per rack per
     * control tick, and rack ids are fleet row indices anyway.
     */
    std::vector<RackPlanState> plan_;
};

} // namespace dcbatt::core

#endif // DCBATT_CORE_PRIORITY_AWARE_COORDINATOR_H_

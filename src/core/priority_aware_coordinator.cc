#include "core/priority_aware_coordinator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace dcbatt::core {

using dynamo::OverrideCommand;
using dynamo::RackChargeInfo;
using util::Amperes;
using util::Watts;

PriorityAwareCoordinator::PriorityAwareCoordinator(
    SlaCurrentCalculator calculator, PriorityAwareOptions options)
    : calc_(std::move(calculator)), options_(options)
{
}

const std::vector<const RackChargeInfo *> &
PriorityAwareCoordinator::grantOrder(
    const std::vector<RackChargeInfo> &racks) const
{
    auto before = [this](const RackChargeInfo *a,
                         const RackChargeInfo *b) {
        if (!options_.ignorePriority && a->priority != b->priority) {
            return power::priorityIndex(a->priority)
                < power::priorityIndex(b->priority);
        }
        if (!options_.ignoreDod && a->initialDod != b->initialDod)
            return a->initialDod < b->initialDod;
        return a->rackId < b->rackId;
    };
    // Strictly increasing keys confirm the kept order; a tie (a rack id
    // twice) fails the pass and sorts again. Tied entries share their
    // rack id, so filtering any sorted full order by `charging` yields
    // the id sequence std::sort gives on the charging racks.
    auto full_order_holds = [&] {
        if (fullOrder_.size() != racks.size())
            return false;
        for (size_t k = 1; k < fullOrder_.size(); ++k) {
            if (!before(&racks[fullOrder_[k - 1]], &racks[fullOrder_[k]]))
                return false;
        }
        return true;
    };
    if (!full_order_holds()) {
        ++orderSorts_;
        fullOrder_.resize(racks.size());
        std::iota(fullOrder_.begin(), fullOrder_.end(), 0U);
        std::sort(fullOrder_.begin(), fullOrder_.end(),
                  [&](uint32_t a, uint32_t b) {
                      return before(&racks[a], &racks[b]);
                  });
    }
    std::vector<const RackChargeInfo *> &order = orderBuf_;
    order.clear();
    order.reserve(racks.size());
    for (uint32_t i : fullOrder_) {
        if (racks[i].charging)
            order.push_back(&racks[i]);
    }
    return order;
}

PriorityAwareCoordinator::RackPlanState &
PriorityAwareCoordinator::stateFor(int rack_id)
{
    auto idx = static_cast<size_t>(rack_id);
    if (idx >= plan_.size())
        plan_.resize(idx + 1);
    return plan_[idx];
}

const PriorityAwareCoordinator::RackPlanState *
PriorityAwareCoordinator::stateAt(int rack_id) const
{
    auto idx = static_cast<size_t>(rack_id);
    return idx < plan_.size() ? &plan_[idx] : nullptr;
}

Amperes
PriorityAwareCoordinator::slaCurrentFor(double dod,
                                        power::Priority p) const
{
    // Quantize the DOD to a 1e-6 bucket and compute from the bucket
    // value, so equal buckets always yield bit-equal currents.
    double clamped = std::clamp(dod, 0.0, 1.0);
    auto bucket = static_cast<uint64_t>(std::llround(clamped * 1e6));
    uint64_t key =
        (static_cast<uint64_t>(power::priorityIndex(p)) << 32)
        | bucket;
    auto it = slaMemo_.find(key);
    if (it != slaMemo_.end()) {
        ++memoStats_.hits;
        return it->second;
    }
    ++memoStats_.misses;
    Amperes current = calc_.requiredCurrent(
        static_cast<double>(bucket) * 1e-6, p);
    if (slaMemo_.size() >= kSlaMemoCapacity) {
        // Clear-on-full: deterministic and order-independent (see the
        // declaration comment).
        slaMemo_.clear();
        ++memoStats_.evictions;
    }
    slaMemo_.emplace(key, current);
    memoStats_.peakOccupancy = std::max(
        memoStats_.peakOccupancy,
        static_cast<uint64_t>(slaMemo_.size()));
    return current;
}

std::vector<OverrideCommand>
PriorityAwareCoordinator::planInitial(
    const std::vector<RackChargeInfo> &racks, Watts available_power)
{
    plan_.clear();

    Amperes floor = bbuParams().minCurrent;
    Watts per_amp = battery::rackWattsPerAmpere(bbuParams());
    const auto &order = grantOrder(racks);

    // Algorithm 1, lines 1-4: initialize everything to the 1 A floor
    // and compute each rack's SLA current from (DOD, priority).
    for (const RackChargeInfo *info : order) {
        RackPlanState &st = stateFor(info->rackId);
        st.commanded = floor;
        st.hasCommand = true;
        st.sla = slaCurrentFor(info->initialDod, info->priority);
        st.hasSla = true;
    }

    // Postponement extension: if even the 1 A floors exceed the
    // available power (minus a noise margin), hold racks in reverse
    // (lowest-priority-highest-discharge-first) order until the
    // floors fit. Without the extension the shortfall becomes server
    // capping instead.
    Watts floor_total = per_amp
        * (floor.value() * static_cast<double>(order.size()));
    Watts plan_budget = available_power - options_.resumeMargin;
    if (options_.allowPostponement && floor_total > plan_budget) {
        Watts need = floor_total - plan_budget;
        for (auto it = order.rbegin();
             it != order.rend() && need.value() > 0.0; ++it) {
            stateFor((*it)->rackId).held = true;
            need -= per_amp * floor.value();
        }
    }
    auto is_held = [this](int rack_id) {
        const RackPlanState *st = stateAt(rack_id);
        return st != nullptr && st->held;
    };
    double floored = 0.0;
    for (const RackChargeInfo *info : order) {
        if (!is_held(info->rackId))
            floored += 1.0;
    }

    // Lines 5-8: grant SLA currents in highest-priority-lowest-
    // discharge-first order while the available power lasts. The
    // floor power of every non-held charging rack is committed up
    // front.
    Watts budget = available_power
        - per_amp * (floor.value() * floored);
    for (const RackChargeInfo *info : order) {
        if (is_held(info->rackId))
            continue;
        Amperes sla = stateFor(info->rackId).sla;
        DCBATT_ASSERT(sla >= floor && sla <= bbuParams().maxCurrent,
                      "SLA current %g A for rack %d outside [%g, %g] A",
                      sla.value(), info->rackId, floor.value(),
                      bbuParams().maxCurrent.value());
        Watts extra = per_amp * (sla - floor).value();
        if (extra <= budget) {
            stateFor(info->rackId).commanded = sla;
            budget -= extra;
        } else if (options_.strictGreedy) {
            break;
        }
    }

    std::vector<OverrideCommand> commands;
    commands.reserve(order.size());
    for (const RackChargeInfo *info : order) {
        if (is_held(info->rackId)) {
            commands.push_back({info->rackId, floor,
                                OverrideCommand::Kind::Hold});
        } else {
            commands.push_back({info->rackId,
                                stateFor(info->rackId).commanded});
        }
    }
    return commands;
}

std::vector<OverrideCommand>
PriorityAwareCoordinator::onTick(const std::vector<RackChargeInfo> &racks,
                                 Watts headroom)
{
    std::vector<OverrideCommand> commands;
    Amperes floor = bbuParams().minCurrent;
    Watts per_amp = battery::rackWattsPerAmpere(bbuParams());
    const auto &order = grantOrder(racks);
    auto is_held = [this](int rack_id) {
        const RackPlanState *st = stateAt(rack_id);
        return st != nullptr && st->held;
    };

    // Power change still in flight through the actuation pipeline
    // (+ = rising). Commands already issued but not yet effective
    // must be counted before reacting to measured headroom —
    // otherwise every tick of a transient demotes (or resumes)
    // another slice of the fleet.
    Watts pending(0.0);
    for (const RackChargeInfo *info : order) {
        const RackPlanState *st = stateAt(info->rackId);
        if (st != nullptr && st->held) {
            // A held rack's power is heading to zero.
            pending -= per_amp * info->setpoint.value();
            continue;
        }
        if (st == nullptr || !st->hasCommand)
            continue;
        pending += per_amp * (st->commanded - info->setpoint).value();
    }

    // Servers come first: while any rack is power-capped, all spare
    // headroom belongs to cap release, not to battery charging — and
    // with postponement enabled the coordinator actively sheds
    // charging load until the controller can release every cap.
    Watts fleet_cap(0.0);
    for (const RackChargeInfo &info : racks)
        fleet_cap += info.capAmount;

    Watts need(0.0);
    if (headroom.value() < 0.0) {
        // Overload: with postponement, re-target to a margin below
        // the limit so trace noise does not retrigger.
        need = -(headroom - pending);
        if (options_.allowPostponement)
            need += options_.resumeMargin;
    }
    if (options_.allowPostponement && fleet_cap.value() > 0.0) {
        // Shed enough charging load that releasing all caps still
        // leaves the hysteresis margin.
        need = util::max(need, fleet_cap + options_.resumeMargin
                                   - (headroom - pending));
    }
    if (need.value() > 0.0) {
        // Demote racks to the floor in reverse order (lowest
        // priority, highest discharge first) until the *projected*
        // power fits.
        for (auto it = order.rbegin();
             it != order.rend() && need.value() > 0.0; ++it) {
            const RackChargeInfo *info = *it;
            if (is_held(info->rackId))
                continue;
            const RackPlanState *cmd = stateAt(info->rackId);
            Amperes present = cmd != nullptr && cmd->hasCommand
                ? cmd->commanded
                : info->setpoint;
            if (present <= floor + Amperes(1e-9)) {
                if (options_.allowPostponement) {
                    // Already at the floor: postpone entirely rather
                    // than let the controller cap servers.
                    stateFor(info->rackId).held = true;
                    commands.push_back({info->rackId, floor,
                                        OverrideCommand::Kind::Hold});
                    need -= per_amp * floor.value();
                }
                continue;
            }
            Watts relief = per_amp * (present - floor).value();
            RackPlanState &st = stateFor(info->rackId);
            st.commanded = floor;
            st.hasCommand = true;
            commands.push_back({info->rackId, floor});
            need -= relief;
        }
        return commands;
    }

    if (options_.allowPostponement && fleet_cap.value() <= 0.0) {
        // Resume postponed racks (highest priority, lowest discharge
        // first) as *projected* headroom allows; each resume costs
        // one floor. The resume threshold sits one margin above the
        // hold threshold (hysteresis against noise ping-pong).
        Watts per_amp_floor = per_amp * floor.value();
        Watts budget = headroom - pending
            - options_.resumeMargin * 2.0;
        for (const RackChargeInfo *info : order) {
            if (budget < per_amp_floor)
                break;
            if (!is_held(info->rackId) || !info->charging)
                continue;
            RackPlanState &st = stateFor(info->rackId);
            st.held = false;
            st.commanded = floor;
            st.hasCommand = true;
            commands.push_back({info->rackId, floor,
                                OverrideCommand::Kind::Resume});
            budget -= per_amp_floor;
        }
    }

    if (options_.restoreOnHeadroom && fleet_cap.value() <= 0.0) {
        // Extension: when racks finish charging and headroom returns,
        // re-grant demoted racks their SLA current, same order as the
        // initial plan.
        Watts budget = headroom - pending - options_.restoreMargin;
        if (budget.value() <= 0.0)
            return commands;
        for (const RackChargeInfo *info : order) {
            const RackPlanState *st = stateAt(info->rackId);
            if (st == nullptr || !st->hasCommand || !st->hasSla)
                continue;
            if (st->commanded >= st->sla)
                continue;
            Watts extra = per_amp * (st->sla - st->commanded).value();
            if (extra <= budget) {
                Amperes sla = st->sla;
                stateFor(info->rackId).commanded = sla;
                commands.push_back({info->rackId, sla});
                budget -= extra;
            }
        }
    }
    return commands;
}

} // namespace dcbatt::core

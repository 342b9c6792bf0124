#include "core/msb_run.h"

#include <utility>

#include "core/charging_invariants.h"
#include "core/priority_aware_coordinator.h"
#include "obs/event_log.h"

namespace dcbatt::core {

using util::Seconds;

MsbRun::MsbRun(MsbRunConfig config, sim::EventQueue &queue,
               trace::DemandRows &rows, StepObserver on_step)
    : rows_(&rows), onStep_(std::move(on_step)),
      dt_(config.physicsStep), slaTable_(config.slaTable),
      chargeStart_(config.otStart + config.otLength),
      eventsOn_(obs::eventLoggingEnabled()),
      topo_(power::Topology::build(config.topology,
                                   std::move(config.charger))),
      coordinator_(std::move(config.coordinator))
{
    for (const power::Rack *rack : topo_.racks()) {
        allRows_.push_back(racks_.size());
        RackOutcome &outcome = racks_.emplace_back();
        outcome.rackId = static_cast<int>(racks_.size()) - 1;
        outcome.priority = rack->priority();
    }
    if (eventsOn_)
        wasCv_.assign(racks_.size(), 0);

    // Apply the first row now: a region's tick-0 budget split reads IT
    // demand before the first physics step, and a zero grant would cap
    // every server.
    applyRow(rows_->sampleIndexAt(Seconds(0.0)));

    plane_ = std::make_unique<dynamo::ControlPlane>(
        topo_, topo_.root(), queue, coordinator_.get(),
        config.controller);
    plane_->start();

    // The snapshot is scheduled after the restore event at the same
    // tick, so FIFO order guarantees the batteries have switched to
    // charging but not yet absorbed any charge.
    topo_.scheduleOpenTransition(queue, topo_.root(),
                                 sim::toTicks(config.otStart),
                                 sim::toTicks(config.otLength));
    queue.schedule(sim::toTicks(chargeStart_),
                   [this] { snapshotChargeStart(); });

    if (config.auditInterval) {
        auditor_ = std::make_unique<sim::InvariantAuditor>(
            queue, sim::toTicks(*config.auditInterval));
        registerChargingInvariants(
            *auditor_, topo_,
            dynamic_cast<const PriorityAwareCoordinator *>(
                coordinator_.get()));
        auditor_->start();
    }

    physics_ = std::make_unique<sim::PeriodicTask>(
        queue, sim::toTicks(dt_), [this](sim::Tick now) { step(now); });
    physics_->start(0);
}

void
MsbRun::applyRow(size_t sample)
{
    topo_.applyDemandRow(rows_->row(sample));
    lastSample_ = sample;
}

void
MsbRun::step(sim::Tick now)
{
    const Seconds sim_now = sim::toSeconds(now);
    // Every rack shares one clock: when the sample index has not
    // advanced since the previous step every demand is unchanged.
    size_t sample = rows_->sampleIndexAt(sim_now);
    if (sample != lastSample_)
        applyRow(sample);
    topo_.stepRacks(dt_);
    topo_.observeBreakers(dt_);
    trackRacks(sim_now);
    onStep_(sim_now);
}

void
MsbRun::snapshotChargeStart()
{
    for (RackOutcome &outcome : racks_) {
        const power::Rack &rack = topo_.rack(outcome.rackId);
        outcome.initialDod = rack.shelf().meanDod();
        outcome.sawOutage = rack.sawOutage();
        if (eventsOn_) {
            obs::logEvent(
                chargeStart_.value(), "charge_start",
                {{"rack", static_cast<double>(outcome.rackId)},
                 {"priority", static_cast<double>(
                                  power::priorityIndex(outcome.priority)
                                  + 1)},
                 {"dod", outcome.initialDod}});
        }
    }
}

void
MsbRun::trackRacks(Seconds now)
{
    // Sticky cap/hold flags plus charge-completion detection (armed
    // once charging has begun). Only the rows stepRacks() refreshed
    // can have changed, so only they are visited — except at the
    // first step after charging began, which visits every row: a rack
    // already full then may never refresh again (DESIGN.md §16).
    const battery::FleetState &fleet = topo_.fleet();
    const bool after_start = now > chargeStart_;
    const bool first_after_start = after_start && !startScanned_;
    startScanned_ = startScanned_ || after_start;
    const std::vector<size_t> &rows =
        first_after_start ? allRows_ : topo_.refreshedRows();
    for (size_t i : rows) {
        RackOutcome &outcome = racks_[i];
        if (fleet.capW[i] > 0.0)
            outcome.everCapped = true;
        if (fleet.held[i])
            outcome.everHeld = true;
        if (!after_start || outcome.chargeDuration
            || !fleet.fullyCharged[i])
            continue;
        outcome.chargeDuration = now - chargeStart_;
        if (eventsOn_) {
            obs::logEvent(
                now.value(), "charge_finish",
                {{"rack", static_cast<double>(i)},
                 {"duration_s", outcome.chargeDuration->value()}});
        }
    }
    if (!eventsOn_)
        return;
    for (size_t i : rows) {
        bool cv = fleet.cvBbus[i] > 0;
        if (cv && !wasCv_[i]) {
            obs::logEvent(now.value(), "cc_cv_transition",
                          {{"rack", static_cast<double>(i)},
                           {"cv_bbus",
                            static_cast<double>(fleet.cvBbus[i])}});
        }
        wasCv_[i] = cv;
    }
}

MsbTally
MsbRun::finish()
{
    physics_->stop();
    plane_->stop();
    if (auditor_) {
        auditor_->stop();
        auditor_->auditNow();
    }

    MsbTally tally;
    tally.breakerTripped = topo_.root().breaker()->tripped();
    double dod_sum = 0.0;
    for (RackOutcome &outcome : racks_) {
        dod_sum += outcome.initialDod;
        outcome.slaMet = outcome.chargeDuration
            && *outcome.chargeDuration
                <= slaTable_.chargeTimeSla(outcome.priority);
        auto pri =
            static_cast<size_t>(power::priorityIndex(outcome.priority));
        ++tally.racksByPriority[pri];
        tally.slaMetByPriority[pri] += outcome.slaMet ? 1 : 0;
        tally.outages += outcome.sawOutage ? 1 : 0;
        tally.everCapped += outcome.everCapped ? 1 : 0;
        tally.everHeld += outcome.everHeld ? 1 : 0;
    }
    tally.meanInitialDod = dod_sum / static_cast<double>(racks_.size());
    return tally;
}

} // namespace dcbatt::core

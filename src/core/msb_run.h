/**
 * @file
 * One MSB's charging run: the step kernel that the paper's Section V-B
 * charging event (core::runChargingEvent) and every shard of a region
 * day (sim::runRegion) share (DESIGN.md §17).
 */

#ifndef DCBATT_CORE_MSB_RUN_H_
#define DCBATT_CORE_MSB_RUN_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "battery/charger_policy.h"
#include "core/sla.h"
#include "dynamo/controller.h"
#include "power/priority.h"
#include "power/topology.h"
#include "sim/event_queue.h"
#include "sim/invariant_auditor.h"
#include "trace/trace_set.h"
#include "util/units.h"

namespace dcbatt::core {

/** Per-rack outcome of a charging event. */
struct RackOutcome
{
    int rackId = -1;
    power::Priority priority = power::Priority::P2;
    /** DOD when charging began. */
    double initialDod = 0.0;
    /** Time from charging start to fully charged (unset: never). */
    std::optional<util::Seconds> chargeDuration;
    bool slaMet = false;
    /** Battery ran out during the open transition (server outage). */
    bool sawOutage = false;
    /** Rack was ever power-capped during the event. */
    bool everCapped = false;
    /** Rack charging was ever postponed (held). */
    bool everHeld = false;
};

/** Rack tallies folded at the end of an MSB run. */
struct MsbTally
{
    /** Fleet-mean DOD when charging began. */
    double meanInitialDod = 0.0;
    std::array<int, 3> racksByPriority{0, 0, 0};
    std::array<int, 3> slaMetByPriority{0, 0, 0};
    /** Racks whose batteries emptied during the open transition. */
    int outages = 0;
    int everCapped = 0;
    int everHeld = 0;
    bool breakerTripped = false;

    int slaMetTotal() const
    {
        return slaMetByPriority[0] + slaMetByPriority[1]
            + slaMetByPriority[2];
    }
};

/** Everything that differs between two MSB runs. */
struct MsbRunConfig
{
    power::TopologySpec topology;
    std::shared_ptr<const battery::ChargerPolicy> charger;
    std::unique_ptr<dynamo::ChargingCoordinator> coordinator;
    dynamo::ControllerConfig controller;
    util::Seconds physicsStep{1.0};
    /** Open transition on the MSB root, in run time. */
    util::Seconds otStart{0.0};
    util::Seconds otLength{0.0};
    /** When set, audit the charging invariants at this interval. */
    std::optional<util::Seconds> auditInterval;
    SlaTable slaTable = SlaTable::paperDefault();
};

/**
 * One MSB on an event queue: its topology, Dynamo control plane and
 * coordinator, optional invariant auditor, open transition and
 * charge-start snapshot, and a physics task that each step applies the
 * trace row in force, steps the CC-CV racks, observes the breakers and
 * tracks every rack's outcome. Construction applies the first trace
 * row and schedules all of it, physics first firing at tick 0. The
 * caller observes each step through a callback, drives the queue, and
 * calls finish() once.
 */
class MsbRun
{
  public:
    /** Called after every physics step, with the step's run time. */
    using StepObserver = std::function<void(util::Seconds)>;

    MsbRun(MsbRunConfig config, sim::EventQueue &queue,
           trace::DemandRows &rows, StepObserver on_step);

    MsbRun(const MsbRun &) = delete;
    MsbRun &operator=(const MsbRun &) = delete;

    power::Topology &topology() { return topo_; }
    const power::Topology &topology() const { return topo_; }
    dynamo::ControlPlane &plane() { return *plane_; }

    const std::vector<RackOutcome> &racks() const { return racks_; }

    /** Audit passes so far (0 without an auditor). */
    uint64_t auditCount() const
    {
        return auditor_ ? auditor_->auditCount() : 0;
    }
    uint64_t auditViolations() const
    {
        return auditor_ ? auditor_->violationCount() : 0;
    }

    /**
     * Stop every task, run one final audit over the end state, and
     * fold the rack tallies. Sets each rack's slaMet.
     */
    MsbTally finish();

  private:
    void applyRow(size_t sample);
    void step(sim::Tick now);
    void snapshotChargeStart();
    void trackRacks(util::Seconds now);

    trace::DemandRows *rows_;
    StepObserver onStep_;
    util::Seconds dt_;
    SlaTable slaTable_;
    /** otStart + otLength: when the batteries begin to charge. */
    util::Seconds chargeStart_;
    bool eventsOn_;

    power::Topology topo_;
    std::unique_ptr<dynamo::ChargingCoordinator> coordinator_;
    std::unique_ptr<dynamo::ControlPlane> plane_;
    std::unique_ptr<sim::InvariantAuditor> auditor_;
    std::unique_ptr<sim::PeriodicTask> physics_;

    size_t lastSample_ = std::numeric_limits<size_t>::max();
    std::vector<RackOutcome> racks_;
    /** Every row index, for trackRacks()' one full pass. */
    std::vector<size_t> allRows_;
    /** Whether trackRacks() has made its pass after charge start. */
    bool startScanned_ = false;
    /** Per-rack "any BBU in CV" flags (journal armed only). */
    std::vector<uint8_t> wasCv_;
};

} // namespace dcbatt::core

#endif // DCBATT_CORE_MSB_RUN_H_

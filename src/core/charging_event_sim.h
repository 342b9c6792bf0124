/**
 * @file
 * The charging-event simulation engine (Section V-B's experimental
 * setup).
 *
 * Builds an MSB subtree with the paper's fleet (316 racks by default),
 * replays a rack power trace, injects an MSB-level open transition at
 * the trace's first peak (when available power is most constrained),
 * and runs one of the charging policies through the Dynamo control
 * plane while recording everything Figs. 13-15 and Table III report:
 * the MSB power series, server capping, per-rack charge-completion
 * times, and SLA satisfaction by priority.
 *
 * The target mean battery DOD is dialled in the same way as the
 * paper: by choosing the open-transition length (each rack's DOD is
 * its IT load times the outage length over its battery energy).
 *
 * The per-step cycle itself is core::MsbRun, shared with the region
 * engine's shards; this file adds the paper's event timing, the four
 * power series and the Table III metrics.
 */

#ifndef DCBATT_CORE_CHARGING_EVENT_SIM_H_
#define DCBATT_CORE_CHARGING_EVENT_SIM_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "battery/bbu_params.h"
#include "core/msb_run.h"
#include "core/priority_aware_coordinator.h"
#include "core/sla.h"
#include "dynamo/controller.h"
#include "power/priority.h"
#include "trace/trace_set.h"
#include "util/time_series.h"
#include "util/units.h"

namespace dcbatt::core {

/** Which charging policy the experiment runs. */
enum class PolicyKind
{
    OriginalLocal,   ///< original 5 A charger, no coordination
    VariableLocal,   ///< variable charger (Eq. 1), no coordination
    GlobalRate,      ///< coordinated baseline: uniform rate
    PriorityAware,   ///< the paper's Algorithm 1
};

const char *toString(PolicyKind kind);

/** Experiment configuration. */
struct ChargingEventConfig
{
    PolicyKind policy = PolicyKind::PriorityAware;
    PriorityAwareOptions priorityAwareOptions;

    /** MSB power limit (the paper sweeps 2.2-2.6 MW). */
    util::Watts msbLimit = util::megawatts(2.5);

    /**
     * Target fleet-mean DOD; sets the open-transition length
     * (0.3 / 0.5 / 0.7 = the paper's low/medium/high discharge).
     */
    double targetMeanDod = 0.5;

    /**
     * When set, inject the open transition at this absolute trace
     * time instead of at the trace's first aggregate peak (the
     * paper's default, where available power is most constrained).
     */
    std::optional<util::Seconds> eventTime;
    /** Explicit open-transition length (overrides targetMeanDod). */
    std::optional<util::Seconds> openTransitionLength;

    /** Lead-in simulated before the open transition. */
    util::Seconds preEventDuration = util::minutes(10.0);
    /** Simulated time after the transition ends. */
    util::Seconds postEventDuration = util::hours(2.5);

    /** Physics integration step. */
    util::Seconds physicsStep{1.0};

    /**
     * When set, run a sim::InvariantAuditor at this interval for the
     * whole event, validating the physical invariants of
     * core/charging_invariants.h (SoC bounds, CC-CV direction, breaker
     * thermal limits, power conservation, priority charging order).
     * A violation aborts through the DCBATT contract machinery.
     */
    std::optional<util::Seconds> auditInterval;

    SlaTable slaTable = SlaTable::paperDefault();
    battery::BbuParams bbuParams;
    dynamo::ControllerConfig controllerConfig;

    /** Rack priorities; must cover the trace's rack count (cycled). */
    std::vector<power::Priority> priorities;
};

/**
 * Everything the benches need from one run: the MSB's rack tallies
 * plus the paper's series and Table III metrics.
 */
struct ChargingEventResult : MsbTally
{
    /** All series share the physics step and start at sim time 0. */
    util::TimeSeries msbPower;
    util::TimeSeries itPower;
    util::TimeSeries rechargePower;
    util::TimeSeries capPower;

    util::Watts limit{0.0};
    util::Seconds otStart{0.0};
    util::Seconds otLength{0.0};
    util::Seconds chargeStart{0.0};

    /** Table III metrics. */
    util::Watts maxCap{0.0};
    double maxCapFractionOfIt = 0.0;

    util::Watts peakPower{0.0};
    /** Physics steps during which the MSB was above its limit. */
    int overloadSteps = 0;

    /** Invariant-audit passes run (0 unless auditing was enabled). */
    uint64_t auditCount = 0;
    /** Violations detected (always 0 with the aborting handler). */
    uint64_t auditViolations = 0;

    std::vector<RackOutcome> racks;
};

/**
 * Run one charging event. @p traces supplies per-rack IT load; the
 * simulation window is centred on the trace's first aggregate peak
 * and must fit inside the trace.
 */
ChargingEventResult runChargingEvent(const ChargingEventConfig &config,
                                     const trace::TraceSet &traces);

} // namespace dcbatt::core

#endif // DCBATT_CORE_CHARGING_EVENT_SIM_H_

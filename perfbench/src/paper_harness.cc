// core::runChargingEvent rebuilt from public calls, with spans. The
// body follows src/core/charging_event_sim.cc statement for statement
// (minus the disarmed flight-recorder channels); a divergence shows up
// as a digest mismatch in the traced run.

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "battery/charger_policy.h"
#include "core/global_coordinator.h"
#include "core/local_coordinator.h"
#include "harness.h"
#include "ledger.h"
#include "power/topology.h"
#include "sim/event_queue.h"
#include "timed_coordinator.h"
#include "util/logging.h"

namespace perfbench {

using namespace dcbatt;
using core::ChargingEventConfig;
using core::ChargingEventResult;
using core::PolicyKind;
using util::Seconds;
using util::Watts;

namespace {

std::unique_ptr<dynamo::ChargingCoordinator>
makeCoordinator(const ChargingEventConfig &config)
{
    switch (config.policy) {
      case PolicyKind::OriginalLocal:
        return std::make_unique<core::LocalOnlyCoordinator>("original-5A");
      case PolicyKind::VariableLocal:
        return std::make_unique<core::LocalOnlyCoordinator>("variable");
      case PolicyKind::GlobalRate:
        return std::make_unique<core::GlobalRateCoordinator>(
            config.bbuParams);
      case PolicyKind::PriorityAware:
        break;
    }
    core::SlaCurrentCalculator calc(
        battery::ChargeTimeModel(config.bbuParams), config.slaTable);
    return std::make_unique<core::PriorityAwareCoordinator>(
        std::move(calc), config.priorityAwareOptions);
}

std::shared_ptr<const battery::ChargerPolicy>
makeLocalCharger(const ChargingEventConfig &config)
{
    if (config.policy == PolicyKind::OriginalLocal)
        return battery::makeOriginalCharger(config.bbuParams);
    return battery::makeVariableCharger(config.bbuParams);
}

power::Topology
buildTopology(const ChargingEventConfig &config, int n_racks)
{
    Span span(SpanKind::PowerBuild);
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Msb;
    spec.rootName = "msb0";
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = (n_racks + 2 * 16 - 1) / (2 * 16);
    spec.racksPerRpp = 16;
    spec.totalRacks = n_racks;
    spec.msbLimit = config.msbLimit;
    spec.sbLimit = util::megawatts(50.0);
    spec.rppLimit = util::megawatts(50.0);
    spec.priorities = config.priorities;
    spec.bbuParams = config.bbuParams;
    return power::Topology::build(spec, makeLocalCharger(config));
}

} // namespace

ChargingEventResult
runChargingEventTraced(const ChargingEventConfig &config,
                       const trace::TraceSet &traces)
{
    Span event_span(SpanKind::SimEvent);
    const int n_racks = traces.rackCount();
    if (n_racks <= 0)
        util::fatal("runChargingEventTraced: empty trace set");
    power::Topology topo = buildTopology(config, n_racks);

    // --- event timing ----------------------------------------------
    const util::TimeSeries &aggregate = traces.aggregate();
    const size_t peak_index = config.eventTime
        ? aggregate.indexAt(*config.eventTime)
        : traces.firstPeakIndex();
    const Seconds peak_time(traces.rack(0).timeAt(peak_index).value());
    Watts peak_power(aggregate[peak_index]);
    Watts mean_rack_power = peak_power / static_cast<double>(n_racks);
    util::Joules rack_energy = config.bbuParams.fullDischargeEnergy
        * static_cast<double>(config.bbuParams.bbusPerRack);
    Seconds ot_length = config.openTransitionLength.value_or(
        rack_energy * config.targetMeanDod / mean_rack_power);
    const Seconds t0 = Seconds(peak_time.value()) - config.preEventDuration;
    const Seconds t_end = peak_time + ot_length + config.postEventDuration;

    // --- control plane ----------------------------------------------
    // The plane's own periodic task is replaced by an identical one
    // armed at the same point, so the tick can sit inside a span.
    sim::EventQueue queue;
    TimedCoordinator coordinator(makeCoordinator(config));
    dynamo::ControlPlane plane(topo, topo.root(), queue, &coordinator,
                               config.controllerConfig);
    sim::PeriodicTask control(
        queue, sim::toTicks(config.controllerConfig.tickPeriod),
        [&plane](sim::Tick) {
            Span span(SpanKind::DynamoTick);
            plane.tickAll();
        });
    control.start();

    auto to_tick = [&](Seconds trace_time) {
        return sim::toTicks(trace_time - t0);
    };
    topo.scheduleOpenTransition(queue, topo.root(), to_tick(peak_time),
                                sim::toTicks(ot_length));

    // --- result plumbing ---------------------------------------------
    ChargingEventResult result;
    result.limit = config.msbLimit;
    result.otStart = peak_time - t0;
    result.otLength = ot_length;
    result.chargeStart = result.otStart + ot_length;
    result.msbPower = util::TimeSeries(Seconds(0.0), config.physicsStep);
    result.itPower = util::TimeSeries(Seconds(0.0), config.physicsStep);
    result.rechargePower =
        util::TimeSeries(Seconds(0.0), config.physicsStep);
    result.capPower = util::TimeSeries(Seconds(0.0), config.physicsStep);
    auto samples = static_cast<size_t>(
        (t_end - t0).value() / config.physicsStep.value()) + 2;
    result.msbPower.reserve(samples);
    result.itPower.reserve(samples);
    result.rechargePower.reserve(samples);
    result.capPower.reserve(samples);
    result.racks.assign(static_cast<size_t>(n_racks), core::RackOutcome{});
    for (int i = 0; i < n_racks; ++i) {
        core::RackOutcome &outcome = result.racks[static_cast<size_t>(i)];
        outcome.rackId = i;
        outcome.priority = topo.rack(i).priority();
    }

    queue.schedule(to_tick(peak_time + ot_length), [&] {
        double dod_sum = 0.0;
        for (int i = 0; i < n_racks; ++i) {
            double dod = topo.rack(i).shelf().meanDod();
            result.racks[static_cast<size_t>(i)].initialDod = dod;
            result.racks[static_cast<size_t>(i)].sawOutage =
                topo.rack(i).sawOutage();
            dod_sum += dod;
        }
        result.meanInitialDod = dod_sum / n_racks;
    });

    // --- physics loop -------------------------------------------------
    std::vector<uint8_t> done(static_cast<size_t>(n_racks), 0);
    size_t last_trace_idx = std::numeric_limits<size_t>::max();
    const Seconds dt = config.physicsStep;
    uint64_t rack_steps = 0;
    sim::PeriodicTask physics(queue, sim::toTicks(dt), [&](sim::Tick now) {
        Span step_span(SpanKind::SimStep);
        Seconds trace_time = t0 + sim::toSeconds(now);
        {
            Span span(SpanKind::TraceWindow);
            size_t trace_idx = traces.rack(0).indexAt(trace_time);
            if (trace_idx != last_trace_idx) {
                last_trace_idx = trace_idx;
                for (int i = 0; i < n_racks; ++i) {
                    topo.rack(i).setItDemand(
                        Watts(traces.rack(i)[trace_idx]));
                }
            }
        }
        {
            Span span(SpanKind::PowerStepRacks);
            topo.stepRacks(dt);
        }
        {
            Span span(SpanKind::PowerObserveBreakers);
            topo.observeBreakers(dt);
        }
        rack_steps += static_cast<uint64_t>(n_racks);

        const battery::FleetState &fleet = topo.fleet();
        const power::Topology::StepPowerTotals &totals =
            topo.stepPowerTotals();
        Watts msb = topo.root().inputPower();
        result.msbPower.append(msb.value());
        result.itPower.append(totals.itW);
        result.rechargePower.append(totals.rechargeW);
        result.capPower.append(totals.capW);
        if (msb > config.msbLimit)
            ++result.overloadSteps;

        Seconds sim_now = sim::toSeconds(now);
        const bool after_start = sim_now > result.chargeStart;
        for (int i = 0; i < n_racks; ++i) {
            auto idx = static_cast<size_t>(i);
            if (fleet.capW[idx] > 0.0)
                result.racks[idx].everCapped = true;
            if (fleet.held[idx])
                result.racks[idx].everHeld = true;
            if (!after_start || done[idx])
                continue;
            if (fleet.fullyCharged[idx]) {
                done[idx] = true;
                result.racks[idx].chargeDuration =
                    sim_now - result.chargeStart;
            }
        }
    });
    physics.start(0);

    {
        Span span(SpanKind::SimQueue);
        tally(Tally::QueueEvents, queue.runUntil(to_tick(t_end)));
    }
    control.stop();
    physics.stop();

    // --- outcomes -----------------------------------------------------
    result.peakPower = Watts(result.msbPower.maxValue());
    result.maxCap = Watts(result.capPower.maxValue());
    size_t max_cap_at = result.capPower.argMax();
    double it_at = result.itPower[max_cap_at] + result.capPower[max_cap_at];
    result.maxCapFractionOfIt =
        it_at > 0.0 ? result.maxCap.value() / it_at : 0.0;
    result.breakerTripped = topo.root().breaker()->tripped();

    for (int i = 0; i < n_racks; ++i) {
        core::RackOutcome &outcome = result.racks[static_cast<size_t>(i)];
        Seconds sla = config.slaTable.chargeTimeSla(outcome.priority);
        outcome.slaMet = outcome.chargeDuration.has_value()
            && *outcome.chargeDuration <= sla;
        auto pri =
            static_cast<size_t>(power::priorityIndex(outcome.priority));
        ++result.racksByPriority[pri];
        if (outcome.slaMet)
            ++result.slaMetByPriority[pri];
    }

    tally(Tally::RackSteps, rack_steps);
    tallyShelves(topo);
    coordinator.tallyMemo();
    return result;
}

} // namespace perfbench

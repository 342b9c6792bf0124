#include "core/charging_event_sim.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "battery/power_shelf.h"
#include "core/global_coordinator.h"
#include "core/local_coordinator.h"
#include "obs/crash_bundle.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/time_series_recorder.h"
#include "obs/trace_span.h"
#include "power/topology.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "util/logging.h"

namespace dcbatt::core {

using util::Seconds;
using util::Watts;

const char *
toString(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::OriginalLocal:
        return "original-5A";
      case PolicyKind::VariableLocal:
        return "variable";
      case PolicyKind::GlobalRate:
        return "global";
      case PolicyKind::PriorityAware:
        return "priority-aware";
    }
    return "?";
}

namespace {

/**
 * A TraceSet replayed from trace time @p t0: run time 0 reads the
 * sample in force at @p t0. A row request outside the cached block
 * transposes the next kBlock samples of every per-rack series into a
 * row-major buffer, so a row is one contiguous read and each series is
 * read a block at a time rather than one strided sample per row.
 */
class TraceSetRows final : public trace::DemandRows
{
  public:
    TraceSetRows(const trace::TraceSet &set, Seconds t0)
        : set_(&set), t0_(t0), racks_(static_cast<size_t>(set.rackCount())),
          block_(racks_ * kBlock)
    {
    }

    size_t
    sampleIndexAt(Seconds t) const override
    {
        return set_->rack(0).indexAt(t0_ + t);
    }

    const double *
    row(size_t index) override
    {
        if (index < first_ || index >= first_ + rows_)
            fill(index);
        return &block_[(index - first_) * racks_];
    }

  private:
    /** Samples per block: 316 racks x 32 samples is 79 KiB. */
    static constexpr size_t kBlock = 32;

    void
    fill(size_t index)
    {
        DCBATT_REQUIRE(index < set_->sampleCount(),
                       "sample %zu outside a %zu-sample trace", index,
                       set_->sampleCount());
        first_ = index;
        rows_ = std::min(kBlock, set_->sampleCount() - index);
        for (size_t i = 0; i < racks_; ++i) {
            const double *series =
                set_->rack(static_cast<int>(i)).values().data() + index;
            for (size_t s = 0; s < rows_; ++s)
                block_[s * racks_ + i] = series[s];
        }
    }

    const trace::TraceSet *set_;
    Seconds t0_;
    size_t racks_;
    std::vector<double> block_;
    /** The cached block holds samples [first_, first_ + rows_). */
    size_t first_ = 0;
    size_t rows_ = 0;
};

std::unique_ptr<dynamo::ChargingCoordinator>
makeCoordinator(const ChargingEventConfig &config)
{
    switch (config.policy) {
      case PolicyKind::OriginalLocal:
        return std::make_unique<LocalOnlyCoordinator>("original-5A");
      case PolicyKind::VariableLocal:
        return std::make_unique<LocalOnlyCoordinator>("variable");
      case PolicyKind::GlobalRate:
        return std::make_unique<GlobalRateCoordinator>(config.bbuParams);
      case PolicyKind::PriorityAware: {
        SlaCurrentCalculator calc(
            battery::ChargeTimeModel(config.bbuParams),
            config.slaTable);
        return std::make_unique<PriorityAwareCoordinator>(
            std::move(calc), config.priorityAwareOptions);
      }
    }
    DCBATT_UNREACHABLE("unknown policy %d",
                       static_cast<int>(config.policy));
}

} // namespace

ChargingEventResult
runChargingEvent(const ChargingEventConfig &config,
                 const trace::TraceSet &traces)
{
    DCBATT_SPAN_NAMED(event_span, "core.runChargingEvent");
    const int n_racks = traces.rackCount();
    if (n_racks <= 0)
        util::fatal("runChargingEvent: empty trace set");
    event_span.arg("racks", static_cast<double>(n_racks));
    DCBATT_REQUIRE(config.physicsStep.value() > 0.0,
                   "nonpositive physics step %g s",
                   config.physicsStep.value());
    DCBATT_REQUIRE(config.targetMeanDod > 0.0
                       && config.targetMeanDod <= 1.0,
                   "target mean DOD %g outside (0, 1]",
                   config.targetMeanDod);

    // --- event timing ----------------------------------------------
    const util::TimeSeries &aggregate = traces.aggregate();
    const size_t peak_index = config.eventTime
        ? aggregate.indexAt(*config.eventTime)
        : traces.firstPeakIndex();
    const Seconds peak_time(
        traces.rack(0).timeAt(peak_index).value());

    Watts peak_power(aggregate[peak_index]);
    Watts mean_rack_power = peak_power / static_cast<double>(n_racks);
    Seconds ot_length = power::openTransitionLength(
        config.bbuParams, config.targetMeanDod, mean_rack_power,
        config.openTransitionLength);

    const Seconds t0 = Seconds(peak_time.value())
        - config.preEventDuration;
    const Seconds t_end = peak_time + ot_length
        + config.postEventDuration;
    if (t0 < traces.start()
        || t_end.value() > traces.start().value()
               + static_cast<double>(traces.sampleCount())
                   * traces.step().value()) {
        util::fatal(util::strf(
            "runChargingEvent: window [%.0f, %.0f]s outside trace "
            "range starting at %.0fs",
            t0.value(), t_end.value(), traces.start().value()));
    }

    // --- result plumbing ---------------------------------------------
    ChargingEventResult result;
    result.limit = config.msbLimit;
    result.otStart = peak_time - t0;
    result.otLength = ot_length;
    result.chargeStart = result.otStart + ot_length;
    // The sample count is known up front (one per physics step over
    // [t0, t_end]); reserving keeps the four series from reallocating
    // inside the hot loop.
    auto samples = static_cast<size_t>(
        (t_end - t0).value() / config.physicsStep.value()) + 2;
    for (util::TimeSeries *series :
         {&result.msbPower, &result.itPower, &result.rechargePower,
          &result.capPower}) {
        *series = util::TimeSeries(Seconds(0.0), config.physicsStep);
        series->reserve(samples);
    }

    // --- the MSB -----------------------------------------------------
    // The paper varies the power limit only at the MSB and assumes
    // lower levels are unconstrained.
    MsbRunConfig run_config;
    power::TopologySpec &spec = run_config.topology;
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
    // The variable charger is the deployed hardware underneath both
    // coordinated policies.
    run_config.charger = config.policy == PolicyKind::OriginalLocal
        ? battery::makeOriginalCharger(config.bbuParams)
        : battery::makeVariableCharger(config.bbuParams);
    run_config.coordinator = makeCoordinator(config);
    const auto *priority_aware =
        dynamic_cast<const PriorityAwareCoordinator *>(
            run_config.coordinator.get());
    run_config.controller = config.controllerConfig;
    run_config.physicsStep = config.physicsStep;
    run_config.otStart = result.otStart;
    run_config.otLength = ot_length;
    run_config.auditInterval = config.auditInterval;
    run_config.slaTable = config.slaTable;

    sim::EventQueue queue;
    TraceSetRows rows(traces, t0);
    std::unique_ptr<obs::TimeSeriesRecorder> recorder;
    MsbRun run(std::move(run_config), queue, rows, [&](Seconds now) {
        // Fleet-level series from the power sums stepRacks folded
        // over the rows it just refreshed (no rack mutates between the
        // step and this read, so the sums equal the object walk).
        const power::Topology &topo = run.topology();
        const power::Topology::StepPowerTotals &totals =
            topo.stepPowerTotals();
        Watts msb = topo.root().inputPower();
        result.msbPower.append(msb.value());
        result.itPower.append(totals.itW);
        result.rechargePower.append(totals.rechargeW);
        result.capPower.append(totals.capW);
        if (msb > config.msbLimit)
            ++result.overloadSteps;
        if (recorder)
            recorder->sampleAt(now.value());
    });
    power::Topology &topo = run.topology();
    dynamo::ControlPlane &plane = run.plane();

    // --- flight recorder ---------------------------------------------
    // Every sink below is a side channel gated on process-wide arming:
    // an unarmed run takes one relaxed load per gate and nothing else,
    // and stdout never depends on any of it. A crash mid-run can stamp
    // the simulation clock into the bundle through this provider.
    obs::SimTimeGuard sim_time_guard(
        [&queue] { return sim::toSeconds(queue.now()).value(); });
    if (obs::crashBundleArmed()) {
        obs::setCrashContext("core.policy", toString(config.policy));
        obs::setCrashContext(
            "core.msb_limit_mw",
            util::strf("%.6g", util::toMegawatts(config.msbLimit)));
        obs::setCrashContext(
            "core.target_mean_dod",
            util::strf("%.6g", config.targetMeanDod));
        obs::setCrashContext("core.racks",
                             util::strf("%d", n_racks));
        obs::setCrashContext(
            "core.physics_step_s",
            util::strf("%.6g", config.physicsStep.value()));
    }
    const bool events_on = obs::eventLoggingEnabled();

    std::vector<double> dod_scratch;
    if (obs::timeSeriesArmed()) {
        recorder = std::make_unique<obs::TimeSeriesRecorder>(
            obs::armedTimeSeriesOptions());
        // MSB aggregate load vs. the breaker limit (the Fig. 12 view).
        recorder->addProbe("msb_mw", [&topo] {
            return util::toMegawatts(topo.root().inputPower());
        });
        // Per-priority capped-rack counts (the Fig. 11 view).
        for (power::Priority pri : power::kAllPriorities) {
            recorder->addProbe(
                util::strf("capped_racks_p%d",
                           power::priorityIndex(pri) + 1),
                [&topo, pri, n_racks] {
                    const battery::FleetState &fleet = topo.fleet();
                    double capped = 0.0;
                    for (int i = 0; i < n_racks; ++i) {
                        auto idx = static_cast<size_t>(i);
                        if (fleet.capW[idx] > 0.0
                            && topo.rack(i).priority() == pri)
                            capped += 1.0;
                    }
                    return capped;
                });
        }
        // SoC distribution quantiles across the fleet (Figs. 3-5).
        dod_scratch.reserve(static_cast<size_t>(n_racks));
        auto soc_quantile = [&topo, &dod_scratch,
                             n_racks](double q) {
            dod_scratch.clear();
            for (int i = 0; i < n_racks; ++i) {
                dod_scratch.push_back(
                    topo.rack(i).shelf().meanDod());
            }
            auto nth = dod_scratch.begin()
                + static_cast<ptrdiff_t>(
                    q * static_cast<double>(n_racks - 1));
            std::nth_element(dod_scratch.begin(), nth,
                             dod_scratch.end());
            return 1.0 - *nth;
        };
        recorder->addProbe("soc_p10",
                           [soc_quantile] { return soc_quantile(0.9); });
        recorder->addProbe("soc_p50",
                           [soc_quantile] { return soc_quantile(0.5); });
        recorder->addProbe("soc_p90",
                           [soc_quantile] { return soc_quantile(0.1); });
        // Shelf CC/CV population.
        for (auto [name, row] :
             {std::pair{"charging_bbus", &battery::FleetState::chargingBbus},
              std::pair{"cv_bbus", &battery::FleetState::cvBbus}}) {
            recorder->addProbe(name, [&topo, row = row] {
                const std::vector<int32_t> &bbus = topo.fleet().*row;
                return std::accumulate(bbus.begin(), bbus.end(), 0.0);
            });
        }
        // Dynamo controller state.
        recorder->addProbe("dynamo_cap_kw", [&plane] {
            return util::toKilowatts(plane.totalCap());
        });
        recorder->addProbe("dynamo_event_active", [&plane] {
            return plane.rootController().chargingEventActive()
                ? 1.0
                : 0.0;
        });
    }

    if (events_on) {
        obs::logEvent(
            0.0, "event_window",
            {{"racks", static_cast<double>(n_racks)},
             {"limit_mw", util::toMegawatts(config.msbLimit)},
             {"ot_start_s", result.otStart.value()},
             {"ot_length_s", result.otLength.value()},
             {"window_s", (t_end - t0).value()}},
            {{"policy", toString(config.policy)}});
    }

    // Sim time 0 == trace time t0.
    queue.runUntil(sim::toTicks(t_end - t0));
    static_cast<MsbTally &>(result) = run.finish();

    // --- outcomes -----------------------------------------------------
    result.auditCount = run.auditCount();
    result.auditViolations = run.auditViolations();
    result.peakPower = Watts(result.msbPower.maxValue());
    result.maxCap = Watts(result.capPower.maxValue());
    size_t max_cap_at = result.capPower.argMax();
    double it_at = result.itPower[max_cap_at]
        + result.capPower[max_cap_at];
    result.maxCapFractionOfIt =
        it_at > 0.0 ? result.maxCap.value() / it_at : 0.0;
    result.racks = run.racks();
    const auto sla_met = static_cast<uint64_t>(result.slaMetTotal());

    // --- metrics ------------------------------------------------------
    // One registry visit per event, after the hot loop: every quantity
    // below is simulation-deterministic (counts and sim-time seconds),
    // so snapshots are identical at any thread count. Wall-clock time
    // is the span's business, never the registry's.
    const auto steps = static_cast<uint64_t>(result.msbPower.size());
    DCBATT_COUNT("core.charging_events");
    DCBATT_COUNT_N("core.racks_simulated", n_racks);
    DCBATT_COUNT_N("core.physics_steps", steps);
    DCBATT_COUNT_N("core.overload_steps", result.overloadSteps);
    DCBATT_COUNT_N("core.sla_met", sla_met);
    DCBATT_COUNT_N("core.sla_missed",
                   static_cast<uint64_t>(n_racks) - sla_met);
    battery::PowerShelf::StepStats shelf{};
    for (int i = 0; i < n_racks; ++i) {
        const auto &stats = topo.rack(i).shelf().stepStats();
        shelf.quiescentSteps += stats.quiescentSteps;
        shelf.lockstepSteps += stats.lockstepSteps;
        shelf.fullSteps += stats.fullSteps;
    }
    DCBATT_COUNT_N("battery.shelf_quiescent_steps",
                   shelf.quiescentSteps);
    DCBATT_COUNT_N("battery.shelf_lane_steps", shelf.lockstepSteps);
    DCBATT_COUNT_N("battery.shelf_full_steps", shelf.fullSteps);
    {
        static obs::Histogram &window_hist = obs::histogram(
            "core.event_window_s",
            {600.0, 1800.0, 3600.0, 7200.0, 14400.0, 28800.0});
        window_hist.observe((t_end - t0).value());
    }
    // The SLA memo counts hits with plain per-instance increments (the
    // lookup itself is only a hash probe); fold them into the registry
    // here, once, instead of per probe.
    if (priority_aware) {
        const SlaMemoStats &memo = priority_aware->slaMemoStats();
        DCBATT_COUNT_N("core.sla_memo_hits", memo.hits);
        DCBATT_COUNT_N("core.sla_memo_misses", memo.misses);
        DCBATT_COUNT_N("core.sla_memo_evictions", memo.evictions);
        static obs::Histogram &memo_hist = obs::histogram(
            "core.sla_memo_occupancy",
            {16.0, 64.0, 256.0, 1024.0, 4096.0});
        memo_hist.observe(static_cast<double>(memo.peakOccupancy));
    }
    event_span.arg("physics_steps", static_cast<double>(steps));
    event_span.arg("overload_steps",
                   static_cast<double>(result.overloadSteps));

    if (events_on) {
        obs::logEvent(
            (t_end - t0).value(), "event_end",
            {{"peak_mw", util::toMegawatts(result.peakPower)},
             {"overload_steps",
              static_cast<double>(result.overloadSteps)},
             {"sla_met", static_cast<double>(sla_met)},
             {"audit_count",
              static_cast<double>(result.auditCount)},
             {"audit_violations",
              static_cast<double>(result.auditViolations)}});
    }
    if (recorder) {
        // Offer the end state as a final sample (taken iff the
        // cadence is due), then hand the tape to the process-wide
        // store under this task's RunScope label.
        recorder->sampleAt((t_end - t0).value());
        obs::publishTimeSeries(std::move(*recorder));
    }
    return result;
}

} // namespace dcbatt::core

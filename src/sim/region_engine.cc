#include "sim/region_engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "battery/batch_charge_kernel.h"
#include "battery/charger_policy.h"
#include "core/msb_run.h"
#include "core/priority_aware_coordinator.h"
#include "core/region_budget.h"
#include "core/sla.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/time_series_recorder.h"
#include "obs/trace_span.h"
#include "sim/event_queue.h"
#include "trace/streaming_trace_source.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace dcbatt::sim {

using power::RegionSpec;
using util::Seconds;
using util::Watts;

namespace {

/** Tolerance separating budget overshoot from float fuzz. */
constexpr double kBudgetSlackW = 1e3;

/**
 * One MSB shard: a core::MsbRun over its own streaming trace source
 * and its own event queue, plus the budget bookkeeping only the region
 * reports. All mutable state is confined to the shard; the driving
 * thread touches it only between chunks, in shard-index order.
 */
class MsbShard
{
  public:
    MsbShard(const RegionSpec &spec, int index)
        : spec_(&spec), index_(index),
          name_(power::msbName(spec, index)),
          journal_(obs::eventLoggingEnabled()),
          source_(msbTraceSpec(spec, index)),
          run_(runConfig(spec, index), queue_, source_,
               [this](Seconds) { observeStep(); })
    {
        for (const power::Rack *rack : run_.topology().racks())
            priorityRow_.push_back(static_cast<uint8_t>(
                power::priorityIndex(rack->priority())));
        report_ = msbBudgetReport(spec, index, run_.topology(),
                                  priorityRow_);
    }

    /** The run's step callback holds this shard's address. */
    MsbShard(const MsbShard &) = delete;
    MsbShard &operator=(const MsbShard &) = delete;

    /**
     * Run this shard's queue through @p until, then fold its budget
     * report while the fleet columns are still in this lane's cache.
     */
    void
    runUntil(Tick until)
    {
        // Name the MSB in the journal: without a scope, events from
        // worker threads interleave in the default scope.
        std::optional<obs::RunScope> scope;
        if (journal_)
            scope.emplace(name_);
        queue_.runUntil(until);
        report_ = msbBudgetReport(*spec_, index_, run_.topology(),
                                  priorityRow_);
    }

    /**
     * Budget-splitter input at the end of the last chunk (at
     * construction before the first); nothing runs between the two.
     */
    const core::MsbBudgetReport &report() const { return report_; }

    /** Impose this tick's budget ceiling; called between chunks. */
    void
    applyGrant(double grant_w)
    {
        grantW_ = grant_w;
        run_.plane().rootController().setLimitCeiling(Watts(grant_w));
        grantSumW_ += grant_w;
        grantMinW_ = std::min(grantMinW_, grant_w);
        grantMaxW_ = std::max(grantMaxW_, grant_w);
        ++grantTicks_;
    }

    /** Fleet power sums of the shard's last physics step. */
    const power::Topology::StepPowerTotals &
    lastStep() const
    {
        return run_.topology().stepPowerTotals();
    }

    uint64_t physicalAudits() const { return run_.auditCount(); }

    /** Fold the run into the outcome row (driving thread only). */
    RegionMsbOutcome
    finalize()
    {
        std::optional<obs::RunScope> scope;
        if (journal_)
            scope.emplace(name_);
        RegionMsbOutcome out;
        static_cast<core::MsbTally &>(out) = run_.finish();
        out.msbIndex = index_;
        out.name = name_;
        out.racks = spec_->racksPerMsb;
        out.suite = power::suiteOfMsb(*spec_, index_);
        out.building = power::buildingOfMsb(*spec_, index_);
        out.peakMw = util::toMegawatts(Watts(peakW_));
        out.overloadSteps = overloadSteps_;
        out.budgetOverSteps = budgetOverSteps_;

        out.meanGrantMw = grantTicks_ > 0
            ? util::toMegawatts(
                  Watts(grantSumW_ / static_cast<double>(grantTicks_)))
            : 0.0;
        out.minGrantMw = grantTicks_ > 0
            ? util::toMegawatts(Watts(grantMinW_))
            : 0.0;
        out.maxGrantMw = util::toMegawatts(Watts(grantMaxW_));
        out.itEnergyMwh = itWs_ / 3.6e9;
        out.rechargeEnergyMwh = rechargeWs_ / 3.6e9;
        out.rackChargeDurations.reserve(run_.racks().size());
        for (const core::RackOutcome &rack : run_.racks())
            out.rackChargeDurations.push_back(rack.chargeDuration);

        const trace::StreamingTraceStats &ts = source_.stats();
        out.traceWindowsGenerated = ts.windowsGenerated;
        out.traceRefetches = ts.refetches;
        out.traceEvictions = ts.evictions;
        out.tracePeakResidentBytes = ts.peakResidentBytes;
        return out;
    }

  private:
    /**
     * The paper's priority-aware policy under each MSB root, with the
     * MSB's slot in the staggered outage campaign.
     */
    static core::MsbRunConfig
    runConfig(const RegionSpec &spec, int index)
    {
        core::MsbRunConfig config;
        config.topology = power::msbTopologySpec(spec, index);
        config.charger = battery::makeVariableCharger(spec.bbuParams);
        core::SlaCurrentCalculator calc(
            battery::ChargeTimeModel(spec.bbuParams),
            core::SlaTable::paperDefault());
        config.coordinator =
            std::make_unique<core::PriorityAwareCoordinator>(
                std::move(calc), core::PriorityAwareOptions{});
        config.physicsStep = spec.physicsStep;
        config.otStart = power::msbOutageStart(spec, index);
        config.otLength = power::msbOutageLength(spec);
        config.auditInterval = spec.auditInterval;
        return config;
    }

    /**
     * Per-physics-step bookkeeping (runs on whichever worker owns the
     * chunk). The MSB draw is itW + rechargeW here, not the root
     * node's input power as in runChargingEvent: the same watts,
     * summed in another order.
     */
    void
    observeStep()
    {
        const power::Topology::StepPowerTotals &totals = lastStep();
        const double dt_s = spec_->physicsStep.value();
        double msb_w = totals.itW + totals.rechargeW;
        peakW_ = std::max(peakW_, msb_w);
        if (msb_w > spec_->msbLimit.value())
            ++overloadSteps_;
        if (msb_w > grantW_ + kBudgetSlackW)
            ++budgetOverSteps_;
        itWs_ += totals.itW * dt_s;
        rechargeWs_ += totals.rechargeW * dt_s;
    }

    const RegionSpec *spec_;
    int index_;
    std::string name_;
    bool journal_;
    /** Declared before run_, so it is destroyed after it. */
    EventQueue queue_;
    trace::StreamingTraceSource source_;
    core::MsbRun run_;
    /** power::priorityIndex of each rack row (fixed for the run). */
    std::vector<uint8_t> priorityRow_;
    core::MsbBudgetReport report_;

    double peakW_ = 0.0;
    int overloadSteps_ = 0;
    int budgetOverSteps_ = 0;
    double itWs_ = 0.0;
    double rechargeWs_ = 0.0;

    double grantW_ = std::numeric_limits<double>::infinity();
    double grantSumW_ = 0.0;
    double grantMinW_ = std::numeric_limits<double>::infinity();
    double grantMaxW_ = 0.0;
    uint64_t grantTicks_ = 0;
};

} // namespace

trace::StreamingTraceSpec
msbTraceSpec(const RegionSpec &spec, int msb)
{
    trace::StreamingTraceSpec streaming;
    trace::TraceGenSpec &base = streaming.base;
    base.rackCount = spec.racksPerMsb;
    // One trailing step of margin so the zero-order hold at the final
    // physics tick still lands inside the trace.
    base.duration = spec.duration + spec.traceStep;
    base.step = spec.traceStep;
    base.startTime = Seconds(0.0);
    // Per-MSB seed substream: shard count is part of the spec, so this
    // is a semantic input, never a function of --threads.
    base.seed =
        util::Rng::substreamSeed(spec.seed, static_cast<uint64_t>(msb));
    base.aggregateMean = spec.msbAggregateMean;
    base.aggregateAmplitude = spec.msbAggregateAmplitude;
    base.priorities = power::msbPriorityMix(spec);
    streaming.windowSamples = spec.windowSamples;
    streaming.maxResidentWindows = spec.maxResidentWindows;
    return streaming;
}

core::MsbBudgetReport
msbBudgetReport(const RegionSpec &spec, int msb,
                const power::Topology &topology,
                const std::vector<uint8_t> &priorityRow)
{
    core::MsbBudgetReport r;
    r.msbIndex = msb;
    r.suite = power::suiteOfMsb(spec, msb);
    r.building = power::buildingOfMsb(spec, msb);
    r.breakerLimitW = spec.msbLimit.value();
    // IT demand, not measured draw: during an open transition the
    // grid sees nothing, but the grant must already cover the load
    // for the restore instant.
    const double per_rack_charge_w =
        battery::rackWattsPerAmpere(spec.bbuParams).value()
        * spec.bbuParams.maxCurrent.value();
    const battery::FleetState &fleet = topology.fleet();
    const size_t n = fleet.size();
    for (size_t i = 0; i < n; ++i) {
        r.itW += power::cappedItLoad(Watts(fleet.itDemandW[i]),
                                     Watts(fleet.capW[i]))
                     .value();
        if (!fleet.fullyCharged[i])
            r.demandW[priorityRow[i]] += per_rack_charge_w;
    }
    return r;
}

RegionResult
runRegion(const RegionSpec &spec, const RegionRunOptions &options)
{
    DCBATT_SPAN_NAMED(region_span, "sim.runRegion");
    battery::resolveKernelSwitches();
    power::validateRegionSpec(spec);
    const int n_msbs = spec.msbs;
    region_span.arg("msbs", static_cast<double>(n_msbs));
    region_span.arg("racks",
                    static_cast<double>(n_msbs * spec.racksPerMsb));

    const Tick horizon = toTicks(spec.duration);
    const Tick cadence = toTicks(spec.coordinationPeriod);
    DCBATT_REQUIRE(cadence > 0, "coordination period under one tick");

    // Budget-splitter configuration (static for the whole run).
    core::RegionBudgetConfig budget;
    budget.regionBudgetW = power::effectiveRegionBudget(spec).value();
    if (spec.suiteLimit.value()
        < std::numeric_limits<double>::infinity()) {
        budget.suiteLimitW.assign(
            static_cast<size_t>(power::suiteCount(spec)),
            spec.suiteLimit.value());
    }
    if (spec.buildingLimit.value()
        < std::numeric_limits<double>::infinity()) {
        budget.buildingLimitW.assign(
            static_cast<size_t>(spec.buildings),
            spec.buildingLimit.value());
    }

    RegionResult result;
    result.itMw = util::TimeSeries(Seconds(0.0),
                                   spec.coordinationPeriod);
    result.demandItMw = result.itMw;
    result.rechargeMw = result.itMw;
    result.capMw = result.itMw;
    result.grantMw = result.itMw;
    result.unmetMw = result.itMw;
    result.regionPowerMw = result.itMw;

    std::vector<std::unique_ptr<MsbShard>> shards;
    shards.reserve(static_cast<size_t>(n_msbs));

    std::vector<core::MsbBudgetReport> reports(
        static_cast<size_t>(n_msbs));

    // Rollup snapshot of the latest coordination tick, feeding the
    // armed time-series tape (side channel; stdout never reads it).
    struct Rollup
    {
        double itW = 0.0;
        double demandItW = 0.0;
        double rechargeW = 0.0;
        double capW = 0.0;
        double grantW = 0.0;
        double unmetW = 0.0;
        double powerW = 0.0;
    } rollup;

    std::unique_ptr<obs::TimeSeriesRecorder> recorder;
    if (obs::timeSeriesArmed()) {
        recorder = std::make_unique<obs::TimeSeriesRecorder>(
            obs::armedTimeSeriesOptions());
        const std::pair<const char *, double Rollup::*> probes[] = {
            {"region_power_mw", &Rollup::powerW},
            {"region_it_mw", &Rollup::itW},
            {"region_recharge_mw", &Rollup::rechargeW},
            {"region_cap_mw", &Rollup::capW},
            {"region_grant_mw", &Rollup::grantW},
            {"region_unmet_mw", &Rollup::unmetW},
        };
        for (const auto &[name, field] : probes) {
            recorder->addProbe(name, [&rollup, field = field] {
                return rollup.*field / 1e6;
            });
        }
    }

    // Everything the splitter does at one coordination tick: collect
    // reports, split, audit, apply grants, roll up — all in
    // shard-index order on the driving thread, so the artifacts are
    // independent of worker count.
    auto coordinate = [&](Tick at) {
        for (int i = 0; i < n_msbs; ++i)
            reports[static_cast<size_t>(i)] =
                shards[static_cast<size_t>(i)]->report();
        core::RegionBudgetOutcome outcome =
            core::splitRegionBudget(budget, reports);
        core::auditRegionBudget(budget, reports, outcome);
        ++result.budgetAudits;

        rollup = Rollup{};
        for (int i = 0; i < n_msbs; ++i) {
            auto idx = static_cast<size_t>(i);
            shards[idx]->applyGrant(outcome.grantW[idx]);
            const power::Topology::StepPowerTotals &last =
                shards[idx]->lastStep();
            rollup.itW += last.itW;
            rollup.rechargeW += last.rechargeW;
            rollup.capW += last.capW;
            rollup.demandItW += reports[idx].itW;
            rollup.grantW += outcome.grantW[idx];
        }
        rollup.powerW = rollup.itW + rollup.rechargeW;
        rollup.unmetW = outcome.itUnmetW + outcome.classUnmetW[0]
            + outcome.classUnmetW[1] + outcome.classUnmetW[2];

        result.itMw.append(rollup.itW / 1e6);
        result.demandItMw.append(rollup.demandItW / 1e6);
        result.rechargeMw.append(rollup.rechargeW / 1e6);
        result.capMw.append(rollup.capW / 1e6);
        result.grantMw.append(rollup.grantW / 1e6);
        result.unmetMw.append(rollup.unmetW / 1e6);
        result.regionPowerMw.append(rollup.powerW / 1e6);
        ++result.coordinationTicks;
        if (recorder)
            recorder->sampleAt(toSeconds(at).value());
    };

    for (int i = 0; i < n_msbs; ++i)
        shards.push_back(std::make_unique<MsbShard>(spec, i));

    // options.threads counts lanes, the calling thread included.
    std::optional<util::ThreadPool> pool;
    if (options.threads > 1)
        pool.emplace(options.threads - 1);
    for (Tick t = 0; t < horizon; t += cadence) {
        coordinate(t);
        Tick chunk_end = std::min(t + cadence, horizon);
        // runUntil is inclusive: events AT the boundary tick must wait
        // for the next split, so every tick's physics sees that tick's
        // grants (region_engine.h, "Chunk boundary").
        auto run_chunk = [&](size_t shard) {
            shards[shard]->runUntil(chunk_end - 1);
        };
        if (pool) {
            pool->parallelFor(static_cast<size_t>(n_msbs), run_chunk);
        } else {
            for (size_t shard = 0; shard < shards.size(); ++shard)
                run_chunk(shard);
        }
    }

    // --- fold outcomes (shard-index order, driving thread) ----------
    uint64_t sla_met = 0;
    uint64_t racks_total = 0;
    for (int i = 0; i < n_msbs; ++i) {
        result.physicalAudits +=
            shards[static_cast<size_t>(i)]->physicalAudits();
        RegionMsbOutcome out =
            shards[static_cast<size_t>(i)]->finalize();
        sla_met += static_cast<uint64_t>(out.slaMetTotal());
        racks_total += static_cast<uint64_t>(out.racks);
        result.tracePeakResidentBytes += out.tracePeakResidentBytes;
        result.msbs.push_back(std::move(out));
    }
    result.peakRegionMw = result.regionPowerMw.size() > 0
        ? result.regionPowerMw.maxValue()
        : 0.0;

    // --- obs layer ---------------------------------------------------
    // One registry visit after the run; every value is
    // simulation-deterministic, so snapshots are identical at any
    // --threads (gauges below max-merge for the same reason).
    DCBATT_COUNT("region.runs");
    DCBATT_COUNT_N("region.msbs_simulated",
                   static_cast<uint64_t>(n_msbs));
    DCBATT_COUNT_N("region.racks_simulated", racks_total);
    DCBATT_COUNT_N("region.coordination_ticks",
                   result.coordinationTicks);
    DCBATT_COUNT_N("region.budget_audits", result.budgetAudits);
    DCBATT_COUNT_N("region.sla_met", sla_met);
    DCBATT_COUNT_N("region.sla_missed", racks_total - sla_met);
    {
        static obs::Gauge &peak_gauge =
            obs::gauge("region.peak_power_mw");
        peak_gauge.setMax(result.peakRegionMw);
        static obs::Gauge &resident_gauge =
            obs::gauge("region.trace_resident_bytes_peak");
        resident_gauge.setMax(
            static_cast<double>(result.tracePeakResidentBytes));
    }
    for (const RegionMsbOutcome &msb : result.msbs) {
        obs::gauge(util::strf("region.msb%03d.peak_mw", msb.msbIndex))
            .setMax(msb.peakMw);
        obs::gauge(
            util::strf("region.msb%03d.sla_met", msb.msbIndex))
            .setMax(static_cast<double>(msb.slaMetTotal()));
        obs::gauge(
            util::strf("region.msb%03d.outages", msb.msbIndex))
            .setMax(static_cast<double>(msb.outages));
    }
    if (recorder) {
        recorder->sampleAt(spec.duration.value());
        obs::publishTimeSeries(std::move(*recorder));
    }

    region_span.arg("coordination_ticks",
                    static_cast<double>(result.coordinationTicks));
    region_span.arg("peak_mw", result.peakRegionMw);
    return result;
}

} // namespace dcbatt::sim

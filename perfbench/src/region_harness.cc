// sim::runRegion (sharded mode) rebuilt from public calls, with spans.
// HarnessShard follows MsbShard in src/sim/region_engine.cc statement
// for statement (minus the disarmed recorder and invariant auditing);
// a divergence shows up as a digest mismatch in the traced run.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "battery/charger_policy.h"
#include "core/priority_aware_coordinator.h"
#include "core/region_budget.h"
#include "core/sla.h"
#include "dynamo/controller.h"
#include "harness.h"
#include "ledger.h"
#include "sim/event_queue.h"
#include "timed_coordinator.h"
#include "trace/streaming_trace_source.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {

using namespace dcbatt;
using power::RegionSpec;
using sim::Tick;
using util::Seconds;
using util::Watts;

namespace {

constexpr double kBudgetSlackW = 1e3;

trace::StreamingTraceSpec
streamingSpec(const RegionSpec &spec, int index)
{
    trace::StreamingTraceSpec streaming;
    trace::TraceGenSpec &base = streaming.base;
    base.rackCount = spec.racksPerMsb;
    base.duration = spec.duration + spec.traceStep;
    base.step = spec.traceStep;
    base.startTime = Seconds(0.0);
    base.seed =
        util::Rng::substreamSeed(spec.seed, static_cast<uint64_t>(index));
    base.aggregateMean = spec.msbAggregateMean;
    base.aggregateAmplitude = spec.msbAggregateAmplitude;
    base.priorities = power::msbPriorityMix(spec);
    streaming.windowSamples = spec.windowSamples;
    streaming.maxResidentWindows = spec.maxResidentWindows;
    return streaming;
}

power::Topology
buildTopology(const RegionSpec &spec, int index)
{
    Span span(SpanKind::PowerBuild);
    return power::Topology::build(
        power::msbTopologySpec(spec, index),
        battery::makeVariableCharger(spec.bbuParams));
}

class HarnessShard
{
  public:
    HarnessShard(const RegionSpec &spec, int index)
        : spec_(&spec), index_(index), source_(streamingSpec(spec, index)),
          topo_(buildTopology(spec, index))
    {
        const auto racks = static_cast<size_t>(spec.racksPerMsb);
        done_.assign(racks, 0);
        everCapped_.assign(racks, 0);
        everHeld_.assign(racks, 0);
        initialDod_.assign(racks, 0.0);
        sawOutage_.assign(racks, 0);
        chargeDurationS_.assign(racks, -1.0);

        applyTraceSample(0);

        core::SlaCurrentCalculator calc(
            battery::ChargeTimeModel(spec.bbuParams),
            core::SlaTable::paperDefault());
        coordinator_ = std::make_unique<TimedCoordinator>(
            std::make_unique<core::PriorityAwareCoordinator>(
                std::move(calc), core::PriorityAwareOptions{}));
        plane_ = std::make_unique<dynamo::ControlPlane>(
            topo_, topo_.root(), queue_, coordinator_.get());
        // Stands in for plane_->start(): same period, same arming
        // point, so the same event order.
        control_ = std::make_unique<sim::PeriodicTask>(
            queue_, sim::toTicks(dynamo::ControllerConfig{}.tickPeriod),
            [this](Tick) {
                Span span(SpanKind::DynamoTick);
                plane_->tickAll();
            });
        control_->start();

        otStart_ = spec.firstOutage
            + spec.outageStagger * static_cast<double>(index);
        util::Joules rack_energy = spec.bbuParams.fullDischargeEnergy
            * static_cast<double>(spec.bbuParams.bbusPerRack);
        Watts mean_rack_power =
            spec.msbAggregateMean / static_cast<double>(spec.racksPerMsb);
        otLength_ = spec.openTransitionLength.value_or(
            rack_energy * spec.targetMeanDod / mean_rack_power);
        chargeStart_ = otStart_ + otLength_;
        if (chargeStart_ >= spec.duration)
            util::fatal("runRegionTraced: open transition outside run");
        topo_.scheduleOpenTransition(queue_, topo_.root(),
                                     sim::toTicks(otStart_),
                                     sim::toTicks(otLength_));
        queue_.schedule(sim::toTicks(chargeStart_), [this] {
            double dod_sum = 0.0;
            for (int i = 0; i < spec_->racksPerMsb; ++i) {
                auto idx = static_cast<size_t>(i);
                double dod = topo_.rack(i).shelf().meanDod();
                initialDod_[idx] = dod;
                sawOutage_[idx] = topo_.rack(i).sawOutage() ? 1 : 0;
                dod_sum += dod;
            }
            meanInitialDod_ = dod_sum / spec_->racksPerMsb;
        });

        physics_ = std::make_unique<sim::PeriodicTask>(
            queue_, sim::toTicks(spec.physicsStep),
            [this](Tick now) { step(now); });
        physics_->start(0);
    }

    /** Run this shard's queue through @p until (one chunk). */
    void
    runChunk(Tick until)
    {
        Span span(SpanKind::SimQueue);
        tally(Tally::QueueEvents, queue_.runUntil(until));
    }

    core::MsbBudgetReport
    report() const
    {
        core::MsbBudgetReport r;
        r.msbIndex = index_;
        r.suite = power::suiteOfMsb(*spec_, index_);
        r.building = power::buildingOfMsb(*spec_, index_);
        r.breakerLimitW = spec_->msbLimit.value();
        double per_rack_charge_w =
            battery::rackWattsPerAmpere(spec_->bbuParams).value()
            * spec_->bbuParams.maxCurrent.value();
        for (const power::Rack *rack : topo_.racks()) {
            r.itW += rack->itLoad().value();
            if (!rack->shelf().fullyCharged()) {
                r.demandW[static_cast<size_t>(
                    power::priorityIndex(rack->priority()))] +=
                    per_rack_charge_w;
            }
        }
        return r;
    }

    void
    applyGrant(double grant_w)
    {
        grantW_ = grant_w;
        plane_->rootController().setLimitCeiling(Watts(grant_w));
        grantSumW_ += grant_w;
        grantMinW_ = std::min(grantMinW_, grant_w);
        grantMaxW_ = std::max(grantMaxW_, grant_w);
        ++grantTicks_;
    }

    const power::Topology::StepPowerTotals &
    lastTotals() const
    {
        return topo_.stepPowerTotals();
    }

    sim::RegionMsbOutcome
    finalize()
    {
        physics_->stop();
        control_->stop();

        sim::RegionMsbOutcome out;
        out.msbIndex = index_;
        out.name = power::msbName(*spec_, index_);
        out.racks = spec_->racksPerMsb;
        out.suite = power::suiteOfMsb(*spec_, index_);
        out.building = power::buildingOfMsb(*spec_, index_);
        out.peakMw = util::toMegawatts(Watts(peakW_));
        out.overloadSteps = overloadSteps_;
        out.budgetOverSteps = budgetOverSteps_;
        out.breakerTripped = topo_.root().breaker()->tripped();
        out.meanInitialDod = meanInitialDod_;

        core::SlaTable sla_table = core::SlaTable::paperDefault();
        for (int i = 0; i < spec_->racksPerMsb; ++i) {
            auto idx = static_cast<size_t>(i);
            auto pri = static_cast<size_t>(
                power::priorityIndex(topo_.rack(i).priority()));
            ++out.racksByPriority[pri];
            double duration_s = chargeDurationS_[idx];
            if (duration_s >= 0.0
                && duration_s
                    <= sla_table.chargeTimeSla(topo_.rack(i).priority())
                           .value())
                ++out.slaMetByPriority[pri];
            out.outages += sawOutage_[idx];
            out.everCapped += everCapped_[idx];
            out.everHeld += everHeld_[idx];
        }

        out.meanGrantMw = grantTicks_ > 0
            ? util::toMegawatts(
                  Watts(grantSumW_ / static_cast<double>(grantTicks_)))
            : 0.0;
        out.minGrantMw =
            grantTicks_ > 0 ? util::toMegawatts(Watts(grantMinW_)) : 0.0;
        out.maxGrantMw = util::toMegawatts(Watts(grantMaxW_));
        out.itEnergyMwh = itWs_ / 3.6e9;
        out.rechargeEnergyMwh = rechargeWs_ / 3.6e9;

        const trace::StreamingTraceStats &ts = source_.stats();
        out.traceWindowsGenerated = ts.windowsGenerated;
        out.traceRefetches = ts.refetches;
        out.traceEvictions = ts.evictions;
        out.tracePeakResidentBytes = ts.peakResidentBytes;

        tally(Tally::TraceWindowsBuilt, ts.windowsGenerated);
        tally(Tally::TraceRefetches, ts.refetches);
        tally(Tally::TraceSamples, samplesBuilt_);
        tally(Tally::RackSteps, rackSteps_);
        tallyShelves(topo_);
        coordinator_->tallyMemo();
        return out;
    }

  private:
    void
    applyTraceSample(size_t idx)
    {
        Span span(SpanKind::TraceWindow);
        uint64_t before = source_.stats().windowsGenerated;
        int64_t start = tracing() ? nowNs() : 0;
        const trace::TraceWindow &window = source_.windowFor(idx);
        tally(Tally::TraceLookups);
        if (source_.stats().windowsGenerated != before) {
            samplesBuilt_ += window.sampleCount()
                * static_cast<uint64_t>(window.rackCount());
            if (tracing())
                tally(Tally::TraceBuildNs,
                      static_cast<uint64_t>(nowNs() - start));
        }
        const double *row = window.row(idx);
        for (int i = 0; i < spec_->racksPerMsb; ++i)
            topo_.rack(i).setItDemand(Watts(row[static_cast<size_t>(i)]));
        lastTraceIdx_ = idx;
    }

    void
    step(Tick now)
    {
        Span step_span(SpanKind::SimStep);
        Seconds sim_now = sim::toSeconds(now);
        size_t idx = source_.sampleIndexAt(sim_now);
        if (idx != lastTraceIdx_)
            applyTraceSample(idx);

        const Seconds dt = spec_->physicsStep;
        {
            Span span(SpanKind::PowerStepRacks);
            topo_.stepRacks(dt);
        }
        {
            Span span(SpanKind::PowerObserveBreakers);
            topo_.observeBreakers(dt);
        }
        rackSteps_ += static_cast<uint64_t>(spec_->racksPerMsb);

        const power::Topology::StepPowerTotals &totals =
            topo_.stepPowerTotals();
        double msb_w = totals.itW + totals.rechargeW;
        peakW_ = std::max(peakW_, msb_w);
        if (msb_w > spec_->msbLimit.value())
            ++overloadSteps_;
        if (msb_w > grantW_ + kBudgetSlackW)
            ++budgetOverSteps_;
        itWs_ += totals.itW * dt.value();
        rechargeWs_ += totals.rechargeW * dt.value();

        const battery::FleetState &fleet = topo_.fleet();
        const bool after_start = sim_now > chargeStart_;
        for (int i = 0; i < spec_->racksPerMsb; ++i) {
            auto row = static_cast<size_t>(i);
            if (fleet.capW[row] > 0.0)
                everCapped_[row] = 1;
            if (fleet.held[row])
                everHeld_[row] = 1;
            if (!after_start || done_[row])
                continue;
            if (fleet.fullyCharged[row]) {
                done_[row] = 1;
                chargeDurationS_[row] = (sim_now - chargeStart_).value();
            }
        }
    }

    const RegionSpec *spec_;
    int index_;
    /** Declared first so it is destroyed after every task below. */
    sim::EventQueue queue_;
    trace::StreamingTraceSource source_;
    power::Topology topo_;
    std::unique_ptr<TimedCoordinator> coordinator_;
    std::unique_ptr<dynamo::ControlPlane> plane_;
    std::unique_ptr<sim::PeriodicTask> control_;
    std::unique_ptr<sim::PeriodicTask> physics_;

    Seconds otStart_{0.0};
    Seconds otLength_{0.0};
    Seconds chargeStart_{0.0};
    size_t lastTraceIdx_ = std::numeric_limits<size_t>::max();

    std::vector<uint8_t> done_;
    std::vector<uint8_t> everCapped_;
    std::vector<uint8_t> everHeld_;
    std::vector<double> initialDod_;
    std::vector<uint8_t> sawOutage_;
    std::vector<double> chargeDurationS_;
    double meanInitialDod_ = 0.0;

    double peakW_ = 0.0;
    int overloadSteps_ = 0;
    int budgetOverSteps_ = 0;
    double itWs_ = 0.0;
    double rechargeWs_ = 0.0;
    uint64_t rackSteps_ = 0;
    uint64_t samplesBuilt_ = 0;

    double grantW_ = std::numeric_limits<double>::infinity();
    double grantSumW_ = 0.0;
    double grantMinW_ = std::numeric_limits<double>::infinity();
    double grantMaxW_ = 0.0;
    uint64_t grantTicks_ = 0;
};

core::RegionBudgetConfig
budgetConfig(const RegionSpec &spec)
{
    core::RegionBudgetConfig budget;
    budget.regionBudgetW = power::effectiveRegionBudget(spec).value();
    if (spec.suiteLimit.value() < std::numeric_limits<double>::infinity()) {
        budget.suiteLimitW.assign(
            static_cast<size_t>(power::suiteCount(spec)),
            spec.suiteLimit.value());
    }
    if (spec.buildingLimit.value()
        < std::numeric_limits<double>::infinity()) {
        budget.buildingLimitW.assign(static_cast<size_t>(spec.buildings),
                                     spec.buildingLimit.value());
    }
    return budget;
}

} // namespace

sim::RegionResult
runRegionTraced(const RegionSpec &spec, util::ThreadPool &pool)
{
    power::validateRegionSpec(spec);
    const int n_msbs = spec.msbs;
    const auto n = static_cast<size_t>(n_msbs);
    const Tick horizon = sim::toTicks(spec.duration);
    const Tick cadence = sim::toTicks(spec.coordinationPeriod);
    const core::RegionBudgetConfig budget = budgetConfig(spec);
    const unsigned lanes = pool.size() + 1;

    sim::RegionResult result;
    result.itMw = util::TimeSeries(Seconds(0.0), spec.coordinationPeriod);
    result.demandItMw = result.itMw;
    result.rechargeMw = result.itMw;
    result.capMw = result.itMw;
    result.grantMw = result.itMw;
    result.unmetMw = result.itMw;
    result.regionPowerMw = result.itMw;

    std::vector<std::unique_ptr<HarnessShard>> shards;
    shards.reserve(n);
    std::vector<core::MsbBudgetReport> reports(n);

    auto coordinate = [&] {
        Span span(SpanKind::SimCoordinate);
        for (size_t i = 0; i < n; ++i)
            reports[i] = shards[i]->report();
        core::RegionBudgetOutcome outcome;
        {
            Span split(SpanKind::CoreSplit);
            outcome = core::splitRegionBudget(budget, reports);
        }
        {
            Span audit(SpanKind::CoreAudit);
            core::auditRegionBudget(budget, reports, outcome);
        }
        tally(Tally::Splits);
        ++result.budgetAudits;

        double it_w = 0.0, demand_w = 0.0, recharge_w = 0.0, cap_w = 0.0,
               grant_w = 0.0;
        for (size_t i = 0; i < n; ++i) {
            shards[i]->applyGrant(outcome.grantW[i]);
            const auto &totals = shards[i]->lastTotals();
            it_w += totals.itW;
            recharge_w += totals.rechargeW;
            cap_w += totals.capW;
            demand_w += reports[i].itW;
            grant_w += outcome.grantW[i];
        }
        double unmet_w = outcome.itUnmetW + outcome.classUnmetW[0]
            + outcome.classUnmetW[1] + outcome.classUnmetW[2];
        result.itMw.append(it_w / 1e6);
        result.demandItMw.append(demand_w / 1e6);
        result.rechargeMw.append(recharge_w / 1e6);
        result.capMw.append(cap_w / 1e6);
        result.grantMw.append(grant_w / 1e6);
        result.unmetMw.append(unmet_w / 1e6);
        result.regionPowerMw.append((it_w + recharge_w) / 1e6);
        ++result.coordinationTicks;
    };

    {
        Span span(SpanKind::SimCoordinate);
        for (int i = 0; i < n_msbs; ++i)
            shards.push_back(std::make_unique<HarnessShard>(spec, i));
    }

    for (Tick t = 0; t < horizon; t += cadence) {
        coordinate();
        Tick chunk_end = std::min(t + cadence, horizon);
        int64_t start = nowNs();
        pool.parallelFor(n, [&](size_t shard) {
            int64_t item_start = nowNs();
            shards[shard]->runChunk(chunk_end - 1);
            recordChunk(item_start, nowNs());
        });
        closeParallelSection(start, nowNs(), lanes);
    }

    {
        Span span(SpanKind::SimCoordinate);
        for (size_t i = 0; i < n; ++i) {
            sim::RegionMsbOutcome out = shards[i]->finalize();
            result.tracePeakResidentBytes += out.tracePeakResidentBytes;
            result.msbs.push_back(std::move(out));
        }
        result.peakRegionMw = result.regionPowerMw.size() > 0
            ? result.regionPowerMw.maxValue()
            : 0.0;
    }
    return result;
}

} // namespace perfbench

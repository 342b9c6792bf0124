/**
 * @file
 * google-benchmark microbenchmarks of the hot paths: Algorithm 1
 * planning, the SLA-current inversion, BBU physics stepping, and the
 * event-queue kernel. These quantify the control plane's cost per
 * decision — the paper's controllers tick every 3 seconds over
 * hundreds of racks, so planning must be microseconds, not
 * milliseconds.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "battery/bbu.h"
#include "core/charging_event_sim.h"
#include "core/global_coordinator.h"
#include "core/priority_aware_coordinator.h"
#include "core/region_budget.h"
#include "dynamo/controller.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/time_series_recorder.h"
#include "power/topology.h"
#include "reliability/aor_simulator.h"
#include "sim/event_queue.h"
#include "trace/streaming_trace_source.h"
#include "trace/trace_cache.h"
#include "trace/trace_generator.h"
#include "trace/trace_row_kernel.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace {

using namespace dcbatt;
using dynamo::RackChargeInfo;
using power::Priority;
using util::Amperes;

std::vector<RackChargeInfo>
makeFleet(int racks)
{
    auto priorities = power::makePriorityMix(racks / 3, racks / 3,
                                             racks - 2 * (racks / 3));
    util::Rng rng(5);
    std::vector<RackChargeInfo> fleet;
    for (int i = 0; i < racks; ++i) {
        RackChargeInfo info;
        info.rackId = i;
        info.priority = priorities[static_cast<size_t>(i)
                                   % priorities.size()];
        info.initialDod = rng.uniform(0.2, 0.8);
        info.setpoint = Amperes(2.0);
        info.itLoad = util::kilowatts(6.3);
        info.charging = true;
        fleet.push_back(info);
    }
    return fleet;
}

core::PriorityAwareCoordinator
makePa()
{
    return core::PriorityAwareCoordinator(
        core::SlaCurrentCalculator(battery::ChargeTimeModel(),
                                   core::SlaTable::paperDefault()));
}

/** Attach the coordinator's SLA-memo counters to a benchmark run. */
void
reportSlaMemo(benchmark::State &state,
              const core::PriorityAwareCoordinator &pa)
{
    const core::SlaMemoStats &memo = pa.slaMemoStats();
    state.counters["sla_memo_hits"] = static_cast<double>(memo.hits);
    state.counters["sla_memo_misses"] =
        static_cast<double>(memo.misses);
    state.counters["sla_memo_evictions"] =
        static_cast<double>(memo.evictions);
    state.counters["sla_memo_peak_occupancy"] =
        static_cast<double>(memo.peakOccupancy);
}

void
BM_PriorityAwarePlan(benchmark::State &state)
{
    auto fleet = makeFleet(static_cast<int>(state.range(0)));
    auto pa = makePa();
    for (auto _ : state) {
        auto commands =
            pa.planInitial(fleet, util::kilowatts(300.0));
        benchmark::DoNotOptimize(commands);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    reportSlaMemo(state, pa);
}
BENCHMARK(BM_PriorityAwarePlan)->Arg(64)->Arg(316)->Arg(1024);

/**
 * An event's first plan: a fresh coordinator per iteration, built and
 * torn down outside the timing, so every timed planInitial() sorts
 * the grant order (BM_PriorityAwarePlan re-plans one fleet and reuses
 * the kept order).
 */
void
BM_PriorityAwareFirstPlan(benchmark::State &state)
{
    auto fleet = makeFleet(static_cast<int>(state.range(0)));
    std::optional<core::PriorityAwareCoordinator> pa;
    uint64_t sorts = 0;
    for (auto _ : state) {
        state.PauseTiming();
        pa.emplace(makePa());
        state.ResumeTiming();
        auto commands =
            pa->planInitial(fleet, util::kilowatts(300.0));
        benchmark::DoNotOptimize(commands);
        state.PauseTiming();
        sorts += pa->grantOrderSorts();
        pa.reset();
        state.ResumeTiming();
    }
    if (sorts != static_cast<uint64_t>(state.iterations()))
        state.SkipWithError("a timed first plan did not sort");
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PriorityAwareFirstPlan)->Arg(316);

void
BM_PriorityAwareOverloadTick(benchmark::State &state)
{
    auto fleet = makeFleet(static_cast<int>(state.range(0)));
    auto pa = makePa();
    pa.planInitial(fleet, util::kilowatts(300.0));
    for (auto _ : state) {
        auto commands = pa.onTick(fleet, util::kilowatts(-30.0));
        benchmark::DoNotOptimize(commands);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    reportSlaMemo(state, pa);
}
BENCHMARK(BM_PriorityAwareOverloadTick)->Arg(316);

void
BM_GlobalPlan(benchmark::State &state)
{
    auto fleet = makeFleet(static_cast<int>(state.range(0)));
    core::GlobalRateCoordinator global;
    for (auto _ : state) {
        auto commands =
            global.planInitial(fleet, util::kilowatts(300.0));
        benchmark::DoNotOptimize(commands);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GlobalPlan)->Arg(316);

void
BM_SlaCurrentInversion(benchmark::State &state)
{
    core::SlaCurrentCalculator calc(battery::ChargeTimeModel(),
                                    core::SlaTable::paperDefault());
    double dod = 0.1;
    for (auto _ : state) {
        dod = dod >= 0.99 ? 0.1 : dod + 0.01;
        benchmark::DoNotOptimize(
            calc.requiredCurrent(dod, Priority::P1));
    }
}
BENCHMARK(BM_SlaCurrentInversion);

void
BM_BbuStepSecond(benchmark::State &state)
{
    battery::BbuModel bbu;
    bbu.forceDod(1.0);
    bbu.startCharging(Amperes(2.0));
    for (auto _ : state) {
        if (bbu.fullyCharged()) {
            bbu.forceDod(1.0);
            bbu.startCharging(Amperes(2.0));
        }
        bbu.step(util::Seconds(1.0));
        benchmark::DoNotOptimize(bbu);
    }
}
BENCHMARK(BM_BbuStepSecond);

void
BM_EventQueueSchedule(benchmark::State &state)
{
    sim::EventQueue queue;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            queue.scheduleAfter(i + 1, [] {});
        queue.runUntil(queue.now() + 64);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueSchedule);

/**
 * One simulated hour of an MSB's event traffic: the 3 s control tick
 * and the 1 s physics step, armed in MsbRun's order (control first,
 * then physics at phase 0). With range(0) = K > 0, the first control
 * tick also issues K actuation commands that land together 20 s
 * later, one per rack, as the Dynamo's overrides do.
 */
void
BM_EventQueueMsbTraffic(benchmark::State &state)
{
    const int burst = static_cast<int>(state.range(0));
    const sim::Tick lag = sim::toTicks(util::Seconds(20.0));
    uint64_t events = 0;
    for (auto _ : state) {
        sim::EventQueue queue;
        bool issued = false;
        sim::PeriodicTask control(
            queue, sim::toTicks(util::Seconds(3.0)), [&](sim::Tick) {
                ++events;
                if (issued)
                    return;
                issued = true;
                for (int i = 0; i < burst; ++i)
                    queue.scheduleAfter(lag, [&events] { ++events; });
            });
        sim::PeriodicTask physics(queue,
                                  sim::toTicks(util::Seconds(1.0)),
                                  [&](sim::Tick) { ++events; });
        control.start();
        physics.start(0);
        queue.runUntil(sim::toTicks(util::Seconds(3600.0)));
    }
    benchmark::DoNotOptimize(events);
    state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_EventQueueMsbTraffic)->Arg(0)->Arg(300);

/**
 * Serial Monte Carlo AOR: one timeline, generated and walked per
 * iteration. This is the pre-sharding baseline the parallel variant
 * is measured against.
 */
void
BM_AorSerial(benchmark::State &state)
{
    const double years = static_cast<double>(state.range(0));
    for (auto _ : state) {
        reliability::AorConfig config;
        config.years = years;
        reliability::AorSimulator sim(reliability::paperFailureData(),
                                      config);
        benchmark::DoNotOptimize(
            sim.aorForChargeTime(util::minutes(30.0)));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(years));
}
BENCHMARK(BM_AorSerial)->Arg(1000)->Unit(benchmark::kMillisecond);

/**
 * Sharded Monte Carlo AOR on a worker pool. Note the sampled history
 * differs from BM_AorSerial (shard count is semantic), so compare
 * wall time only. Arg is the thread count; 64 shards per iteration.
 */
void
BM_AorSharded(benchmark::State &state)
{
    const double years = 1000.0;
    util::ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        reliability::AorConfig config;
        config.years = years;
        config.shards = 64;
        reliability::AorSimulator sim(reliability::paperFailureData(),
                                      config, &pool);
        benchmark::DoNotOptimize(
            sim.aorForChargeTime(util::minutes(30.0)));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(years));
}
BENCHMARK(BM_AorSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/**
 * One small end-to-end charging event (64 racks, 1 h trace, short
 * post-event window) — the unit of work SweepRunner fans out. Keeps
 * the per-event cost visible so sweep wall-time regressions can be
 * attributed.
 */
void
BM_RunChargingEvent(benchmark::State &state)
{
    trace::TraceGenSpec spec;
    spec.rackCount = 64;
    spec.startTime = util::hours(10.0);
    spec.duration = util::hours(1.0);
    spec.priorities = power::makePriorityMix(22, 21, 21);
    trace::TraceSet traces = trace::generateTraces(spec);

    core::ChargingEventConfig config;
    config.policy = core::PolicyKind::PriorityAware;
    config.msbLimit = util::megawatts(0.9);
    config.targetMeanDod = 0.5;
    config.priorities = spec.priorities;
    config.postEventDuration = util::minutes(20.0);
    // DCBATT_BENCH_RECORD=1 arms the flight recorder so the
    // recording-on cost can be A/B'd against the default run (the
    // 1.2x budget in BENCH_perf.json's gate policy).
    const char *record = std::getenv("DCBATT_BENCH_RECORD");
    const bool recording = record && record[0] == '1';
    if (recording) {
        obs::setEventLoggingEnabled(true);
        obs::armTimeSeries();
    }
    for (auto _ : state) {
        auto result = core::runChargingEvent(config, traces);
        benchmark::DoNotOptimize(result);
        if (recording) {
            // Drop the tapes between iterations so memory stays flat;
            // the clear is part of the measured recording overhead.
            obs::clearTimeSeries();
            obs::clearEvents();
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_RunChargingEvent)->Unit(benchmark::kMillisecond);

/**
 * Hot-path cost of resolving an already-cached trace set, with the
 * cache's memory footprint attached (the trace.cache_bytes gauge the
 * --metrics-json export carries).
 */
void
BM_TraceCacheLookup(benchmark::State &state)
{
    trace::TraceGenSpec spec;
    spec.rackCount = 64;
    spec.duration = util::hours(1.0);
    spec.step = util::Seconds(3.0);
    auto warm = trace::sharedTraces(spec);  // miss happens here
    for (auto _ : state) {
        auto traces = trace::sharedTraces(spec);
        benchmark::DoNotOptimize(traces);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["trace_cache_bytes"] =
        obs::gauge("trace.cache_bytes").value();
}
BENCHMARK(BM_TraceCacheLookup);

void
BM_TraceGeneration(benchmark::State &state)
{
    trace::TraceGenSpec spec;
    spec.rackCount = 64;
    spec.duration = util::hours(1.0);
    spec.step = util::Seconds(3.0);
    for (auto _ : state) {
        auto traces = trace::generateTraces(spec);
        benchmark::DoNotOptimize(traces);
    }
    state.SetItemsProcessed(state.iterations() * 64 * 1200);
}
BENCHMARK(BM_TraceGeneration);

void
BM_StreamingTraceWindow(benchmark::State &state)
{
    // One full forward walk over every row of an hour-long trace
    // through the paging path (rows filled on demand, windows opened
    // and evicted), the per-shard hot loop of the region engine.
    trace::StreamingTraceSpec spec;
    spec.base.rackCount = 64;
    spec.base.duration = util::hours(1.0);
    spec.base.step = util::Seconds(3.0);
    spec.windowSamples = 300;
    spec.maxResidentWindows = 2;
    for (auto _ : state) {
        trace::StreamingTraceSource source(spec);
        double sink = 0.0;
        for (size_t s = 0; s < source.sampleCount(); ++s)
            sink += source.row(s)[0];
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 64 * 1200);
}
BENCHMARK(BM_StreamingTraceWindow);

/**
 * One hour-long window of a region MSB's rows (300 racks, 1 200
 * samples) through the shared row kernel and its normal stream, on
 * the scalar passes (0) or the AVX2 ones (1). Both produce the same
 * bits; the ratio is the vector passes' gain over a floor of libm
 * log and cos calls.
 */
void
BM_TraceRowKernel(benchmark::State &state)
{
    const util::SimdMode mode = state.range(0) == 1
        ? util::SimdMode::Avx2
        : util::SimdMode::Scalar;
    if (mode == util::SimdMode::Avx2 && !util::cpuHasAvx2()) {
        state.SkipWithError("CPU has no AVX2");
        return;
    }
    constexpr size_t kRacks = 300;
    constexpr size_t kSamples = 1200;
    trace::TraceGenSpec spec;
    spec.rackCount = static_cast<int>(kRacks);
    spec.duration = util::hours(1.0);
    spec.step = util::Seconds(3.0);
    trace::TraceRowKernel kernel(spec);
    util::Rng rng(spec.seed);
    const std::vector<double> initial_ar =
        kernel.drawRackParameters(spec, rng);
    std::vector<double> row(kRacks);
    for (auto _ : state) {
        util::Mt64 engine(spec.seed + 1, mode);
        util::StandardNormalStream noise(engine);
        std::vector<double> ar = initial_ar;
        for (size_t s = 0; s < kSamples; ++s)
            kernel.synthesizeWithMode(s, noise, ar.data(), row.data(),
                                      mode);
        benchmark::DoNotOptimize(row.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kRacks * kSamples);
}
BENCHMARK(BM_TraceRowKernel)->Arg(0)->Arg(1);

/** A region MSB: 300 racks, 2 SBs, 16-rack RPPs, a 100/100/100 mix. */
power::Topology
regionMsbTopology()
{
    constexpr int kRacks = 300;
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = (kRacks + 2 * 16 - 1) / (2 * 16);
    spec.racksPerRpp = 16;
    spec.totalRacks = kRacks;
    spec.priorities = power::makePriorityMix(100, 100, 100);
    return power::Topology::build(spec, battery::makeVariableCharger());
}

/** An hour of 3 s demand samples for @p racks racks. */
trace::TraceSet
hourOfDemand(int racks)
{
    trace::TraceGenSpec trace_spec;
    trace_spec.rackCount = racks;
    trace_spec.duration = util::hours(1.0);
    trace_spec.step = util::Seconds(3.0);
    return trace::generateTraces(trace_spec);
}

void
BM_StepRacksQuiescent(benchmark::State &state)
{
    // The steady state of a region MSB-day: 300 racks with full
    // batteries, a 3 s trace applied rack by rack every third 1 s
    // physics step. One iteration is one physics step (stepRacks +
    // observeBreakers).
    power::Topology topo = regionMsbTopology();
    const int racks = static_cast<int>(topo.racks().size());
    trace::TraceSet traces = hourOfDemand(racks);
    const util::Seconds dt(1.0);
    size_t step = 0;
    for (auto _ : state) {
        if (step % 3 == 0) {
            size_t sample = (step / 3) % traces.sampleCount();
            for (int i = 0; i < racks; ++i)
                topo.rack(i).setItDemand(
                    util::Watts(traces.rack(i)[sample]));
        }
        topo.stepRacks(dt);
        topo.observeBreakers(dt);
        benchmark::DoNotOptimize(topo.stepPowerTotals());
        ++step;
    }
    state.SetItemsProcessed(state.iterations() * racks);
}
BENCHMARK(BM_StepRacksQuiescent);

/**
 * Bring every rack of @p topo back from an open transition at its own
 * DOD (0.5 to 0.9 in rack order) and take the first step, which admits
 * each shelf as a resident charge lane (its packs restart alike).
 */
void
rearmCharging(power::Topology &topo, util::Seconds dt)
{
    power::Topology::startOpenTransition(topo.root());
    const size_t racks = topo.racks().size();
    for (size_t i = 0; i < racks; ++i) {
        topo.racks()[i]->shelf().forceUniformDod(
            0.5 + 0.4 * static_cast<double>(i)
                / static_cast<double>(racks - 1));
    }
    power::Topology::endOpenTransition(topo.root());
    topo.stepRacks(dt);
    topo.observeBreakers(dt);
}

void
BM_StepRacksCharging(benchmark::State &state)
{
    // A region MSB right after an open transition: all 300 racks
    // recharge in lockstep, each inside one CC or CV segment at the
    // variable charger's DOD-dependent setpoint. One iteration is one
    // 1 s physics step (stepRacks + observeBreakers). Every 600 steps,
    // well before the shallowest rack completes, the fleet is re-armed
    // outside the timed region.
    power::Topology topo = regionMsbTopology();
    for (power::Rack *rack : topo.racks())
        rack->setItDemand(util::kilowatts(6.0));
    const util::Seconds dt(1.0);
    rearmCharging(topo, dt);
    size_t step = 0;
    for (auto _ : state) {
        if (++step % 600 == 0) {
            state.PauseTiming();
            rearmCharging(topo, dt);
            state.ResumeTiming();
        }
        topo.stepRacks(dt);
        topo.observeBreakers(dt);
        benchmark::DoNotOptimize(topo.stepPowerTotals());
    }
    if (topo.quiet())
        state.SkipWithError("the fleet stopped charging");
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(topo.racks().size()));
}
BENCHMARK(BM_StepRacksCharging);

/**
 * One BatchChargeKernel advance of BM_StepRacksCharging's lanes: the
 * 300-rack MSB 300 s into its recharge (half its re-arm period), where
 * every shelf is still a CC lane, advanced one lane at a time (0) or
 * four per vector (1). Both produce the same bits; the ratio is the
 * vector lanes' gain. Every 600 advances the lanes are re-armed outside
 * the timed region, as in BM_StepRacksCharging.
 */
void
BM_BatchChargeAdvance(benchmark::State &state)
{
    const util::SimdMode mode = state.range(0) == 1
        ? util::SimdMode::Avx2
        : util::SimdMode::Scalar;
    if (mode == util::SimdMode::Avx2 && !util::cpuHasAvx2()) {
        state.SkipWithError("CPU has no AVX2");
        return;
    }
    power::Topology topo = regionMsbTopology();
    for (power::Rack *rack : topo.racks())
        rack->setItDemand(util::kilowatts(6.0));
    const util::Seconds dt(1.0);
    rearmCharging(topo, dt);
    for (int step = 1; step < 300; ++step) {
        topo.stepRacks(dt);
        topo.observeBreakers(dt);
    }
    battery::ChargeLaneColumns armed;
    for (const power::Rack *rack : topo.racks()) {
        const battery::BbuModel &pack = rack->shelf().bbu(0);
        const battery::BbuModel::ChargeState s = pack.chargeState();
        if (!pack.charging() || s.inCv) {
            state.SkipWithError("a rack left the CC phase");
            return;
        }
        armed.ccDod.push_back(s.dod);
        armed.ccSetpointA.push_back(s.setpointA);
        armed.ccInputW.push_back(pack.inputPower().value());
    }
    const battery::BatchChargeKernel kernel{battery::BbuParams{}};
    battery::ChargeLaneColumns lanes = armed;
    size_t step = 0;
    for (auto _ : state) {
        if (++step % 600 == 0) {
            state.PauseTiming();
            lanes = armed;
            state.ResumeTiming();
        }
        kernel.advanceWithMode(lanes, dt.value(), mode);
        benchmark::DoNotOptimize(lanes.ccInputW.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(armed.ccLanes()));
}
BENCHMARK(BM_BatchChargeAdvance)->Arg(0)->Arg(1);

void
BM_StepRacksDemandRow(benchmark::State &state)
{
    // BM_StepRacksQuiescent's shape with the trace applied as whole
    // rows through Topology::applyDemandRow(), as core::MsbRun does: a
    // demand row touches no rack, so every step stays quiet and only
    // re-folds the totals and re-sums the tree after a row.
    power::Topology topo = regionMsbTopology();
    const size_t racks = topo.racks().size();
    trace::TraceSet traces = hourOfDemand(static_cast<int>(racks));
    std::vector<double> rows(traces.sampleCount() * racks);
    for (size_t i = 0; i < racks; ++i) {
        for (size_t t = 0; t < traces.sampleCount(); ++t)
            rows[t * racks + i] = traces.rack(static_cast<int>(i))[t];
    }
    const util::Seconds dt(1.0);
    size_t step = 0;
    for (auto _ : state) {
        if (step % 3 == 0) {
            size_t sample = (step / 3) % traces.sampleCount();
            topo.applyDemandRow(&rows[sample * racks]);
        }
        topo.stepRacks(dt);
        topo.observeBreakers(dt);
        benchmark::DoNotOptimize(topo.stepPowerTotals());
        ++step;
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(racks));
}
BENCHMARK(BM_StepRacksDemandRow);

void
BM_ControlTickQuiet(benchmark::State &state)
{
    // An idle Dynamo tick at region scale: ControlPlane::tickAll() on
    // a 300-rack MSB (23 controllers) whose batteries are full and
    // whose MSB controller holds caps its release margin keeps in
    // place. Nothing charges and no rack moves between ticks, so the
    // tick must not pay for the racks: one iteration is one tickAll().
    power::Topology topo = regionMsbTopology();
    for (power::Rack *rack : topo.racks())
        rack->setItDemand(util::kilowatts(6.0));
    sim::EventQueue queue;
    core::PriorityAwareCoordinator coordinator = makePa();
    dynamo::ControlPlane plane(topo, topo.root(), queue, &coordinator);
    const util::Seconds dt(1.0);
    topo.stepRacks(dt);
    topo.observeBreakers(dt);
    // Cap 100 kW of the 1.8 MW load, then leave less headroom than
    // the release margin so the caps stay put.
    dynamo::BreakerController &msb = plane.rootController();
    msb.setLimitCeiling(util::megawatts(1.7));
    plane.tickAll();
    msb.setLimitCeiling(topo.root().inputPower() * 1.001);
    topo.stepRacks(dt);
    topo.observeBreakers(dt);
    if (msb.totalCap().value() <= 0.0) {
        state.SkipWithError("no caps held");
        return;
    }
    for (auto _ : state) {
        plane.tickAll();
        benchmark::DoNotOptimize(msb.totalCap());
    }
    if (plane.totalCap().value() != msb.totalCap().value())
        state.SkipWithError("caps moved during the idle ticks");
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(topo.racks().size()));
}
BENCHMARK(BM_ControlTickQuiet);

void
BM_ControlTickCharging(benchmark::State &state)
{
    // A Dynamo tick during a recharge: ControlPlane::tickAll() on
    // BM_StepRacksCharging's 300-rack MSB right after rearmCharging(),
    // with Algorithm 1's charging event active. Every tick snapshots
    // all 300 rows for the coordinator and scans them in each of the
    // 23 controllers; nothing steps between ticks, so one iteration is
    // one tickAll() over the same rows.
    power::Topology topo = regionMsbTopology();
    for (power::Rack *rack : topo.racks())
        rack->setItDemand(util::kilowatts(6.0));
    sim::EventQueue queue;
    core::PriorityAwareCoordinator coordinator = makePa();
    dynamo::ControlPlane plane(topo, topo.root(), queue, &coordinator);
    rearmCharging(topo, util::Seconds(1.0));
    plane.tickAll();
    if (!plane.rootController().chargingEventActive()) {
        state.SkipWithError("no charging event");
        return;
    }
    for (auto _ : state) {
        plane.tickAll();
        benchmark::DoNotOptimize(plane.rootController().totalCap());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(topo.racks().size()));
}
BENCHMARK(BM_ControlTickCharging);

void
BM_RegionBudgetSplit(benchmark::State &state)
{
    // The cross-MSB coordination tick at region scale: split + audit
    // for n MSBs. Runs once per coordination period (default 60 s),
    // on the driving thread, so it must stay far below a physics step.
    const auto n = static_cast<size_t>(state.range(0));
    core::RegionBudgetConfig config;
    config.regionBudgetW = 0.85 * 2.5e6 * static_cast<double>(n);
    config.suiteLimitW.assign(4, 40e6);
    std::vector<core::MsbBudgetReport> reports(n);
    for (size_t i = 0; i < n; ++i) {
        core::MsbBudgetReport &r = reports[i];
        r.msbIndex = static_cast<int>(i);
        r.suite = static_cast<int>(i % 4);
        r.itW = 1.8e6 + 1e4 * static_cast<double>(i % 7);
        r.demandW = {120e3, 180e3, 90e3};
        r.breakerLimitW = 2.5e6;
    }
    for (auto _ : state) {
        core::RegionBudgetOutcome out =
            core::splitRegionBudget(config, reports);
        core::auditRegionBudget(config, reports, out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RegionBudgetSplit)->Arg(50);

/** region_surge's shape: 48 MSB shards per coordination tick. */
constexpr size_t kShards = 48;

void
BM_ParallelForDispatch(benchmark::State &state)
{
    // The fork-join's own cost: post the 48 shards to 4 lanes (3
    // workers plus the caller), drain empty bodies, join.
    util::ThreadPool pool(3);
    const std::function<void(size_t)> body = [](size_t) {};
    for (auto _ : state)
        pool.parallelFor(kShards, body);
    state.SetItemsProcessed(state.iterations() * kShards);
}
BENCHMARK(BM_ParallelForDispatch)->UseRealTime();

void
BM_ParallelForShards(benchmark::State &state)
{
    // Shard affinity: 48 shards, each with its own 64 KiB slab, one
    // pass over every slab per iteration, in process CPU time. Arg is
    // the lane count; 1 walks the slabs in a plain loop. With home
    // blocks a lane's 12 slabs (768 KiB) stay in its core's cache
    // from call to call; shards dealt out in arrival order move
    // between cores and refetch their slabs.
    const auto lanes = static_cast<unsigned>(state.range(0));
    constexpr size_t kSlabDoubles = 64 * 1024 / sizeof(double);
    std::vector<std::vector<double>> slabs(
        kShards, std::vector<double>(kSlabDoubles, 1.0));
    const std::function<void(size_t)> walk = [&slabs](size_t shard) {
        for (double &x : slabs[shard])
            x = x * 0.999999 + 1e-6;
    };
    std::unique_ptr<util::ThreadPool> pool;
    if (lanes > 1)
        pool = std::make_unique<util::ThreadPool>(lanes - 1);
    for (auto _ : state) {
        if (pool) {
            pool->parallelFor(kShards, walk);
        } else {
            for (size_t shard = 0; shard < kShards; ++shard)
                walk(shard);
        }
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(slabs.front().data());
    state.SetBytesProcessed(state.iterations() * kShards * 64 * 1024);
}
BENCHMARK(BM_ParallelForShards)->Arg(1)->Arg(4)->MeasureProcessCPUTime();

} // namespace

BENCHMARK_MAIN();

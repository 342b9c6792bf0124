/**
 * @file
 * Region engine determinism: a pinned fingerprint of two region runs,
 * the threads differential, the event journal's order across thread
 * counts, the columnar budget report against the rack walk, and a
 * one-MSB region against the paper path (core::runChargingEvent) on
 * the same trace.
 *
 * The contract (region_engine.h) is bit-identical results — exact
 * double equality, not tolerance — for any --threads. The threads
 * differential runs the same shard code on both sides, so the pinned
 * fingerprint is what catches a change to the shard loop itself.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "battery/charger_policy.h"
#include "core/charging_event_sim.h"
#include "core/msb_run.h"
#include "core/priority_aware_coordinator.h"
#include "core/region_budget.h"
#include "obs/event_log.h"
#include "power/region_spec.h"
#include "sim/event_queue.h"
#include "sim/region_engine.h"
#include "trace/streaming_trace_source.h"
#include "util/units.h"

namespace dcbatt::sim {
namespace {

power::RegionSpec
smallSpec()
{
    power::RegionSpec spec;
    spec.name = "test-region";
    spec.buildings = 1;
    spec.suitesPerBuilding = 2;
    spec.msbs = 2;
    spec.racksPerMsb = 32;
    spec.sbsPerMsb = 2;
    spec.racksPerRpp = 16;
    spec.msbLimit = util::kilowatts(320.0);
    spec.seed = 7;
    spec.duration = util::minutes(40.0);
    spec.physicsStep = util::Seconds(1.0);
    spec.coordinationPeriod = util::Seconds(30.0);
    spec.traceStep = util::Seconds(3.0);
    spec.msbAggregateMean = util::kilowatts(200.0);
    spec.msbAggregateAmplitude = util::kilowatts(20.0);
    spec.firstOutage = util::minutes(5.0);
    spec.outageStagger = util::minutes(5.0);
    spec.targetMeanDod = 0.3;
    spec.windowSamples = 100;
    spec.maxResidentWindows = 2;
    spec.auditInterval = util::minutes(2.0);
    return spec;
}

/** smallSpec() under a binding budget: 60% of the fleet rating. */
power::RegionSpec
tightSpec()
{
    power::RegionSpec spec = smallSpec();
    spec.regionBudget =
        util::Watts(0.6 * spec.msbLimit.value() * spec.msbs);
    return spec;
}

void
expectSeriesIdentical(const util::TimeSeries &a,
                      const util::TimeSeries &b, const char *label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    EXPECT_EQ(a.start().value(), b.start().value()) << label;
    EXPECT_EQ(a.step().value(), b.step().value()) << label;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << label << " sample " << i;
}

/** Exact equality on every field — the bit-identical contract. */
void
expectResultsIdentical(const RegionResult &a, const RegionResult &b)
{
    ASSERT_EQ(a.msbs.size(), b.msbs.size());
    for (size_t i = 0; i < a.msbs.size(); ++i) {
        const RegionMsbOutcome &x = a.msbs[i];
        const RegionMsbOutcome &y = b.msbs[i];
        EXPECT_EQ(x.msbIndex, y.msbIndex);
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.racks, y.racks);
        EXPECT_EQ(x.suite, y.suite);
        EXPECT_EQ(x.building, y.building);
        EXPECT_EQ(x.peakMw, y.peakMw) << "msb " << i;
        EXPECT_EQ(x.overloadSteps, y.overloadSteps) << "msb " << i;
        EXPECT_EQ(x.budgetOverSteps, y.budgetOverSteps) << "msb " << i;
        EXPECT_EQ(x.breakerTripped, y.breakerTripped);
        EXPECT_EQ(x.meanInitialDod, y.meanInitialDod) << "msb " << i;
        EXPECT_EQ(x.racksByPriority, y.racksByPriority);
        EXPECT_EQ(x.slaMetByPriority, y.slaMetByPriority)
            << "msb " << i;
        EXPECT_EQ(x.outages, y.outages) << "msb " << i;
        EXPECT_EQ(x.everCapped, y.everCapped) << "msb " << i;
        EXPECT_EQ(x.everHeld, y.everHeld) << "msb " << i;
        EXPECT_EQ(x.meanGrantMw, y.meanGrantMw) << "msb " << i;
        EXPECT_EQ(x.minGrantMw, y.minGrantMw) << "msb " << i;
        EXPECT_EQ(x.maxGrantMw, y.maxGrantMw) << "msb " << i;
        EXPECT_EQ(x.itEnergyMwh, y.itEnergyMwh) << "msb " << i;
        EXPECT_EQ(x.rechargeEnergyMwh, y.rechargeEnergyMwh)
            << "msb " << i;
        EXPECT_TRUE(x.rackChargeDurations == y.rackChargeDurations)
            << "msb " << i;
        EXPECT_EQ(x.traceWindowsGenerated, y.traceWindowsGenerated);
        EXPECT_EQ(x.traceRefetches, y.traceRefetches);
        EXPECT_EQ(x.traceEvictions, y.traceEvictions);
        EXPECT_EQ(x.tracePeakResidentBytes, y.tracePeakResidentBytes);
    }
    expectSeriesIdentical(a.itMw, b.itMw, "itMw");
    expectSeriesIdentical(a.demandItMw, b.demandItMw, "demandItMw");
    expectSeriesIdentical(a.rechargeMw, b.rechargeMw, "rechargeMw");
    expectSeriesIdentical(a.capMw, b.capMw, "capMw");
    expectSeriesIdentical(a.grantMw, b.grantMw, "grantMw");
    expectSeriesIdentical(a.unmetMw, b.unmetMw, "unmetMw");
    expectSeriesIdentical(a.regionPowerMw, b.regionPowerMw,
                          "regionPowerMw");
    EXPECT_EQ(a.peakRegionMw, b.peakRegionMw);
    EXPECT_EQ(a.coordinationTicks, b.coordinationTicks);
    EXPECT_EQ(a.budgetAudits, b.budgetAudits);
    EXPECT_EQ(a.physicalAudits, b.physicalAudits);
    EXPECT_EQ(a.tracePeakResidentBytes, b.tracePeakResidentBytes);
}

TEST(RegionEngine, ThreadCountDoesNotChangeResults)
{
    power::RegionSpec spec = smallSpec();
    RegionRunOptions one;
    one.threads = 1;
    RegionRunOptions four;
    four.threads = 4;
    RegionResult a = runRegion(spec, one);
    RegionResult b = runRegion(spec, four);
    expectResultsIdentical(a, b);
}

TEST(RegionEngine, RunIsSane)
{
    power::RegionSpec spec = smallSpec();
    RegionResult result = runRegion(spec, {});

    ASSERT_EQ(result.msbs.size(), 2u);
    EXPECT_EQ(result.racksTotal(), 64);
    EXPECT_EQ(result.msbs[0].name, "test-region/b0/s0/msb000");
    EXPECT_EQ(result.msbs[1].name, "test-region/b0/s1/msb001");

    // 40 min at a 30 s cadence.
    EXPECT_EQ(result.coordinationTicks, 80u);
    EXPECT_EQ(result.budgetAudits, result.coordinationTicks);
    EXPECT_GT(result.physicalAudits, 0u);
    EXPECT_EQ(result.regionPowerMw.size(), result.coordinationTicks);

    for (const RegionMsbOutcome &msb : result.msbs) {
        EXPECT_FALSE(msb.breakerTripped) << msb.name;
        EXPECT_EQ(msb.overloadSteps, 0) << msb.name;
        EXPECT_EQ(msb.budgetOverSteps, 0) << msb.name;
        EXPECT_GT(msb.peakMw, 0.1) << msb.name;
        EXPECT_GT(msb.meanInitialDod, 0.0) << msb.name;
        EXPECT_GT(msb.itEnergyMwh, 0.0) << msb.name;
        EXPECT_GT(msb.rechargeEnergyMwh, 0.0) << msb.name;
        EXPECT_GT(msb.meanGrantMw, 0.0) << msb.name;
        // Streaming stats: windows were paged, memory stayed at the
        // two-window bound.
        EXPECT_GT(msb.traceWindowsGenerated, 2u) << msb.name;
        const size_t window_bytes =
            spec.windowSamples
            * static_cast<size_t>(spec.racksPerMsb) * sizeof(double);
        EXPECT_LE(msb.tracePeakResidentBytes,
                  spec.maxResidentWindows * window_bytes)
            << msb.name;
    }

    // Grants never exceed the region budget.
    double budget_mw =
        power::effectiveRegionBudget(spec).value() / 1e6;
    for (size_t i = 0; i < result.grantMw.size(); ++i)
        EXPECT_LE(result.grantMw[i], budget_mw + 1e-6);
    EXPECT_GT(result.peakRegionMw, 0.1);
}

TEST(RegionEngine, TightBudgetStillDeterministic)
{
    // Oversubscribe hard (60% of fleet rating) so the splitter is
    // binding, then re-check the threads differential under pressure.
    power::RegionSpec spec = tightSpec();
    RegionRunOptions one;
    one.threads = 1;
    RegionRunOptions three;
    three.threads = 3;
    RegionResult a = runRegion(spec, one);
    RegionResult b = runRegion(spec, three);
    expectResultsIdentical(a, b);
    // The cap must actually bind somewhere for this test to mean
    // anything.
    double budget_mw = 0.6 * spec.msbLimit.value() * spec.msbs / 1e6;
    EXPECT_LE(a.grantMw.maxValue(), budget_mw + 1e-6);
}

/** The budget report as a walk over the rack objects (the reference). */
core::MsbBudgetReport
objectWalkReport(const power::RegionSpec &spec, int msb,
                 const power::Topology &topology)
{
    core::MsbBudgetReport r;
    r.msbIndex = msb;
    r.suite = power::suiteOfMsb(spec, msb);
    r.building = power::buildingOfMsb(spec, msb);
    r.breakerLimitW = spec.msbLimit.value();
    double per_rack_charge_w =
        battery::rackWattsPerAmpere(spec.bbuParams).value()
        * spec.bbuParams.maxCurrent.value();
    for (const power::Rack *rack : topology.racks()) {
        r.itW += rack->itLoad().value();
        if (!rack->shelf().fullyCharged()) {
            r.demandW[static_cast<size_t>(
                power::priorityIndex(rack->priority()))] +=
                per_rack_charge_w;
        }
    }
    return r;
}

TEST(RegionEngine, ColumnarReportMatchesObjectWalk)
{
    // A surge-shaped region: every open transition at once, a 3 s
    // coordination cadence, and a budget 1% above the IT envelope, so
    // recharge binds. The even MSBs postpone charging before capping
    // servers and the odd ones cap, so the run holds, caps and resumes
    // racks. At every coordination tick each MSB's columnar report
    // must equal the rack walk bit for bit. The first pass uses the
    // region's 1 s physics step and 3 s Dynamo tick; the second a 2 s
    // step and a 1.3 s tick, which leave caps, holds and restores
    // between a chunk's last physics step and the report, where the
    // fleet's snapshot columns lag the racks.
    const std::pair<double, double> cadences[] = {{1.0, 3.0},
                                                  {2.0, 1.3}};
    for (const auto &[physics_s, control_s] : cadences) {
        power::RegionSpec spec = smallSpec();
        spec.msbs = 4;
        spec.suitesPerBuilding = 2;
        spec.duration = util::minutes(30.0);
        spec.physicsStep = util::Seconds(physics_s);
        spec.coordinationPeriod = util::Seconds(3.0);
        spec.outageStagger = util::Seconds(0.0);
        spec.targetMeanDod = 0.5;
        spec.regionBudget = util::Watts(
            1.01 * spec.msbs
            * (spec.msbAggregateMean - spec.msbAggregateAmplitude * 0.5)
                  .value());
        power::validateRegionSpec(spec);

        struct Shard
        {
            sim::EventQueue queue;
            std::unique_ptr<trace::StreamingTraceSource> source;
            std::unique_ptr<core::MsbRun> run;
            std::vector<uint8_t> priorityRow;
        };
        std::vector<std::unique_ptr<Shard>> shards;
        for (int i = 0; i < spec.msbs; ++i) {
            auto shard = std::make_unique<Shard>();
            shard->source = std::make_unique<trace::StreamingTraceSource>(
                msbTraceSpec(spec, i));
            core::MsbRunConfig config;
            config.topology = power::msbTopologySpec(spec, i);
            config.charger = battery::makeVariableCharger(spec.bbuParams);
            core::PriorityAwareOptions options;
            options.allowPostponement = i % 2 == 0;
            config.coordinator =
                std::make_unique<core::PriorityAwareCoordinator>(
                    core::SlaCurrentCalculator(
                        battery::ChargeTimeModel(spec.bbuParams),
                        core::SlaTable::paperDefault()),
                    options);
            config.controller.tickPeriod = util::Seconds(control_s);
            config.physicsStep = spec.physicsStep;
            config.otStart = power::msbOutageStart(spec, i);
            config.otLength = power::msbOutageLength(spec);
            shard->run = std::make_unique<core::MsbRun>(
                std::move(config), shard->queue, *shard->source,
                [](util::Seconds) {});
            for (const power::Rack *rack : shard->run->topology().racks())
                shard->priorityRow.push_back(static_cast<uint8_t>(
                    power::priorityIndex(rack->priority())));
            shards.push_back(std::move(shard));
        }

        core::RegionBudgetConfig budget;
        budget.regionBudgetW = power::effectiveRegionBudget(spec).value();
        std::vector<core::MsbBudgetReport> reports(shards.size());
        int ticks_capped = 0, ticks_held = 0, ticks_off = 0,
            ticks_charging = 0;
        const Tick horizon = toTicks(spec.duration);
        const Tick cadence = toTicks(spec.coordinationPeriod);
        for (Tick t = 0; t < horizon; t += cadence) {
            bool capped = false, held = false, off = false,
                 charging = false;
            for (size_t i = 0; i < shards.size(); ++i) {
                const power::Topology &topo = shards[i]->run->topology();
                const int msb = static_cast<int>(i);
                reports[i] = msbBudgetReport(spec, msb, topo,
                                             shards[i]->priorityRow);
                core::MsbBudgetReport walk =
                    objectWalkReport(spec, msb, topo);
                ASSERT_EQ(reports[i].itW, walk.itW)
                    << "physics " << physics_s << " s, tick " << t
                    << ", msb " << i;
                for (size_t c = 0; c < 3; ++c)
                    ASSERT_EQ(reports[i].demandW[c], walk.demandW[c])
                        << "physics " << physics_s << " s, tick " << t
                        << ", msb " << i << ", class " << c;
                EXPECT_EQ(reports[i].msbIndex, walk.msbIndex);
                EXPECT_EQ(reports[i].suite, walk.suite);
                EXPECT_EQ(reports[i].building, walk.building);
                EXPECT_EQ(reports[i].breakerLimitW, walk.breakerLimitW);
                for (const power::Rack *rack : topo.racks()) {
                    capped |= rack->capAmount().value() > 0.0;
                    held |= rack->shelf().chargingHeld();
                    off |= !rack->inputPowerOn();
                    charging |= !rack->shelf().fullyCharged();
                }
            }
            ticks_capped += capped;
            ticks_held += held;
            ticks_off += off;
            ticks_charging += charging;
            core::RegionBudgetOutcome outcome =
                core::splitRegionBudget(budget, reports);
            for (size_t i = 0; i < shards.size(); ++i) {
                shards[i]->run->plane().rootController().setLimitCeiling(
                    util::Watts(outcome.grantW[i]));
            }
            Tick chunk_end = std::min(t + cadence, horizon);
            for (auto &shard : shards)
                shard->queue.runUntil(chunk_end - 1);
        }
        // The comparison only means something if the run went through
        // every state the report reads.
        EXPECT_GT(ticks_off, 0) << "physics " << physics_s << " s";
        EXPECT_GT(ticks_charging, 0) << "physics " << physics_s << " s";
        EXPECT_GT(ticks_held, 0) << "physics " << physics_s << " s";
        EXPECT_GT(ticks_capped, 0) << "physics " << physics_s << " s";
        for (auto &shard : shards)
            shard->run->finish();
    }
}

/**
 * FNV-1a over the bit pattern of every RegionResult field: each
 * per-MSB outcome field, all seven rollup series and the region
 * totals.
 */
uint64_t
fingerprint(const RegionResult &result)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    auto bytes = [&hash](const void *data, size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ULL;
        }
    };
    auto add = [&bytes](auto value) { bytes(&value, sizeof(value)); };
    auto add_series = [&add](const util::TimeSeries &series) {
        add(series.start().value());
        add(series.step().value());
        add(series.size());
        for (double v : series.values())
            add(v);
    };
    add(result.msbs.size());
    for (const RegionMsbOutcome &msb : result.msbs) {
        add(msb.meanInitialDod);
        for (int n : msb.racksByPriority)
            add(n);
        for (int n : msb.slaMetByPriority)
            add(n);
        add(msb.outages);
        add(msb.everCapped);
        add(msb.everHeld);
        add(msb.breakerTripped);
        add(msb.msbIndex);
        add(msb.name.size());
        bytes(msb.name.data(), msb.name.size());
        add(msb.racks);
        add(msb.suite);
        add(msb.building);
        add(msb.peakMw);
        add(msb.overloadSteps);
        add(msb.budgetOverSteps);
        add(msb.meanGrantMw);
        add(msb.minGrantMw);
        add(msb.maxGrantMw);
        add(msb.itEnergyMwh);
        add(msb.rechargeEnergyMwh);
        add(msb.traceWindowsGenerated);
        add(msb.traceRefetches);
        add(msb.traceEvictions);
        add(msb.tracePeakResidentBytes);
    }
    add_series(result.itMw);
    add_series(result.demandItMw);
    add_series(result.rechargeMw);
    add_series(result.capMw);
    add_series(result.grantMw);
    add_series(result.unmetMw);
    add_series(result.regionPowerMw);
    add(result.peakRegionMw);
    add(result.coordinationTicks);
    add(result.budgetAudits);
    add(result.physicalAudits);
    add(result.tracePeakResidentBytes);
    return hash;
}

/**
 * Both small scenarios pinned bit for bit. The threads differential
 * compares the shard loop with itself; these numbers come from
 * outside it, so a change at the chunk boundary (boundary-tick
 * physics running before the split) or anywhere else in the run
 * fails here. Re-pin only for a deliberate change of region bytes.
 */
TEST(RegionEngine, PinnedFingerprint)
{
    EXPECT_EQ(fingerprint(runRegion(smallSpec(), {})),
              0xfdac5f94e613f135ULL);
    EXPECT_EQ(fingerprint(runRegion(tightSpec(), {})),
              0x3fbba7fc3479c631ULL);
}

/**
 * Eight 64-rack MSBs under a binding 3.36 MW budget, every outage at
 * 1 h, a 3 s split: the controllers cap, release and journal a lot
 * from every worker.
 */
power::RegionSpec
journalSpec()
{
    power::RegionSpec spec;
    spec.msbs = 8;
    spec.racksPerMsb = 64;
    spec.msbAggregateMean = util::megawatts(0.4267);
    spec.msbAggregateAmplitude = spec.msbAggregateMean * 0.075;
    spec.duration = util::hours(2.0);
    spec.firstOutage = util::hours(1.0);
    spec.outageStagger = util::Seconds(0.0);
    spec.coordinationPeriod = util::Seconds(3.0);
    spec.regionBudget = util::megawatts(3.36);
    return spec;
}

/** Arms the journal for one test and clears it on both ends. */
class JournalGuard
{
  public:
    JournalGuard()
    {
        obs::clearEvents();
        obs::setEventLoggingEnabled(true);
    }
    ~JournalGuard()
    {
        obs::setEventLoggingEnabled(false);
        obs::clearEvents();
    }
};

std::vector<obs::EventRecord>
journalOf(const power::RegionSpec &spec, unsigned threads)
{
    obs::clearEvents();
    RegionRunOptions options;
    options.threads = threads;
    runRegion(spec, options);
    return obs::snapshotEvents();
}

TEST(RegionEngine, JournalIsIdenticalAcrossThreadCounts)
{
    JournalGuard guard;
    const power::RegionSpec spec = journalSpec();
    const std::vector<obs::EventRecord> reference = journalOf(spec, 1);
    ASSERT_GT(reference.size(), 500u);

    // Every event is filed under the MSB that logged it.
    std::set<std::string> msb_names;
    for (int i = 0; i < spec.msbs; ++i)
        msb_names.insert(power::msbName(spec, i));
    std::set<std::string> seen;
    for (const obs::EventRecord &event : reference) {
        EXPECT_TRUE(msb_names.count(event.scope))
            << event.type << " in scope '" << event.scope << "'";
        seen.insert(event.scope);
    }
    EXPECT_EQ(seen, msb_names);

    const std::string expected = obs::eventsToJsonl(reference);
    for (int rep = 0; rep < 5; ++rep) {
        EXPECT_EQ(obs::eventsToJsonl(journalOf(spec, 8)), expected)
            << "repetition " << rep;
    }
}

TEST(RegionEngineDeathTest, OutageAfterRunEndRejectedBeforeShards)
{
    // 40 min run, outages every 5 min from minute 5: the eighth MSB's
    // outage starts at 40 min, so its charging never begins.
    power::RegionSpec spec = smallSpec();
    spec.msbs = 8;
    EXPECT_EXIT(runRegion(spec, {}), ::testing::ExitedWithCode(1),
                "RegionSpec: MSB 7 open transition \\[2400, [0-9]+\\]s "
                "ends outside the 2400 s run");
}

TEST(RegionEngineDeathTest, NanFieldsRejectedByName)
{
    // Every `<= 0` and `<` test is false for a NaN, so each would pass
    // validation and poison the run.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::pair<const char *, void (*)(power::RegionSpec &, double)>
        fields[] = {
            {"physicsStep",
             [](power::RegionSpec &s, double v) {
                 s.physicsStep = util::Seconds(v);
             }},
            {"traceStep",
             [](power::RegionSpec &s, double v) {
                 s.traceStep = util::Seconds(v);
             }},
            {"coordinationPeriod",
             [](power::RegionSpec &s, double v) {
                 s.coordinationPeriod = util::Seconds(v);
             }},
            {"duration",
             [](power::RegionSpec &s, double v) {
                 s.duration = util::Seconds(v);
             }},
            {"targetMeanDod",
             [](power::RegionSpec &s, double v) { s.targetMeanDod = v; }},
            {"firstOutage",
             [](power::RegionSpec &s, double v) {
                 s.firstOutage = util::Seconds(v);
             }},
            {"outageStagger",
             [](power::RegionSpec &s, double v) {
                 s.outageStagger = util::Seconds(v);
             }},
        };
    for (const auto &[field, set] : fields) {
        power::RegionSpec spec = smallSpec();
        set(spec, nan);
        EXPECT_EXIT(power::validateRegionSpec(spec),
                    ::testing::ExitedWithCode(1),
                    std::string("RegionSpec: ") + field + " is NaN")
            << field;
    }
}

TEST(RegionEngineDeathTest, NonPositiveMsbLimitRejected)
{
    for (double kw : {0.0, -320.0}) {
        power::RegionSpec spec = smallSpec();
        spec.msbLimit = util::kilowatts(kw);
        EXPECT_EXIT(power::validateRegionSpec(spec),
                    ::testing::ExitedWithCode(1),
                    "RegionSpec: msbLimit must be positive");
    }
}

TEST(RegionEngineDeathTest, SubTickStepsAndAuditRejectedByName)
{
    // A positive step under one 1 us tick rounds to a zero period,
    // which the event queue's periodic task would reject mid-run.
    power::RegionSpec physics = smallSpec();
    physics.physicsStep = util::Seconds(1e-7);
    EXPECT_EXIT(power::validateRegionSpec(physics),
                ::testing::ExitedWithCode(1),
                "RegionSpec: physicsStep .* below the 1 us tick");
    power::RegionSpec trace = smallSpec();
    trace.traceStep = util::Seconds(4e-7);
    EXPECT_EXIT(power::validateRegionSpec(trace),
                ::testing::ExitedWithCode(1),
                "RegionSpec: traceStep .* below the 1 us tick");
    power::RegionSpec audit = smallSpec();
    audit.auditInterval = util::Seconds(0.0);
    EXPECT_EXIT(power::validateRegionSpec(audit),
                ::testing::ExitedWithCode(1),
                "RegionSpec: auditInterval must be positive");
}

/**
 * gtest names a parameter that has no PrintTo by its bytes, padding
 * included, and padding bytes are indeterminate; a 64-bit rack count
 * leaves no padding, so the test names are the same on every listing.
 */
struct PaperCase
{
    std::int64_t racks;
    double meanMw;
    double outageS;
};
static_assert(sizeof(PaperCase) == 3 * 8, "PaperCase must have no padding");

class OneMsbVsPaper : public ::testing::TestWithParam<PaperCase>
{
};

/**
 * A one-MSB region with an ample budget against runChargingEvent on
 * the materialized trace of that MSB, the outage at 600 s. The region
 * runs ticks [0, horizon), so the event ends one tick early. Peak draw
 * is the only inexact field: the region sums itW + rechargeW, the
 * paper reads the MSB root's input power.
 */
TEST_P(OneMsbVsPaper, SameOutcomes)
{
    const PaperCase c = GetParam();
    power::RegionSpec spec;
    spec.msbs = 1;
    spec.racksPerMsb = static_cast<int>(c.racks);
    spec.msbAggregateMean = util::megawatts(c.meanMw);
    spec.msbAggregateAmplitude = spec.msbAggregateMean * 0.075;
    spec.duration = util::hours(2.0);
    spec.firstOutage = util::Seconds(600.0);
    spec.openTransitionLength = util::Seconds(c.outageS);
    spec.regionBudget = util::megawatts(100.0);
    const RegionResult region = runRegion(spec, {});
    ASSERT_EQ(region.msbs.size(), 1u);
    const RegionMsbOutcome &msb = region.msbs[0];

    trace::StreamingTraceSource source(msbTraceSpec(spec, 0));
    const trace::TraceSet traces = source.materialize();
    core::ChargingEventConfig config;
    config.msbLimit = spec.msbLimit;
    config.priorities = power::msbPriorityMix(spec);
    config.bbuParams = spec.bbuParams;
    config.physicsStep = spec.physicsStep;
    config.eventTime = util::Seconds(600.0);
    config.openTransitionLength = spec.openTransitionLength;
    config.preEventDuration = util::Seconds(600.0);
    config.postEventDuration = spec.duration - toSeconds(1)
        - util::Seconds(600.0) - *spec.openTransitionLength;
    const core::ChargingEventResult paper =
        core::runChargingEvent(config, traces);

    EXPECT_EQ(paper.racksByPriority, msb.racksByPriority);
    EXPECT_EQ(paper.slaMetByPriority, msb.slaMetByPriority);
    EXPECT_EQ(paper.outages, msb.outages);
    EXPECT_EQ(paper.everCapped, msb.everCapped);
    EXPECT_EQ(paper.everHeld, msb.everHeld);
    EXPECT_EQ(paper.overloadSteps, msb.overloadSteps);
    EXPECT_EQ(paper.meanInitialDod, msb.meanInitialDod);
    // Each rack's charge time, lane-stepped in both engines.
    ASSERT_EQ(paper.racks.size(), msb.rackChargeDurations.size());
    int charged = 0;
    for (size_t i = 0; i < paper.racks.size(); ++i) {
        ASSERT_EQ(paper.racks[i].rackId, static_cast<int>(i));
        const std::optional<util::Seconds> &want =
            paper.racks[i].chargeDuration;
        const std::optional<util::Seconds> &got =
            msb.rackChargeDurations[i];
        ASSERT_EQ(want.has_value(), got.has_value()) << "rack " << i;
        if (!want)
            continue;
        EXPECT_EQ(want->value(), got->value()) << "rack " << i;
        ++charged;
    }
    EXPECT_GT(charged, 0);
    const double paper_mw = util::toMegawatts(paper.peakPower);
    EXPECT_LE(std::abs(paper_mw - msb.peakMw), 1e-12 * paper_mw)
        << paper_mw << " vs " << msb.peakMw;
    EXPECT_EQ(static_cast<int>(paper.msbPower.size()),
              static_cast<int>(spec.duration.value()));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OneMsbVsPaper,
    ::testing::Values(PaperCase{64, 0.4267, 120.0},
                      PaperCase{64, 0.4267, 200.0},
                      PaperCase{300, 2.0, 150.0}),
    [](const ::testing::TestParamInfo<PaperCase> &param) {
        return "racks" + std::to_string(param.param.racks) + "_ot"
            + std::to_string(static_cast<int>(param.param.outageS));
    });

} // namespace
} // namespace dcbatt::sim

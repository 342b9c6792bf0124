/**
 * @file
 * MsbRun's outcome tracking against a full scan. trackRacks() visits
 * only the rows stepRacks() refreshed, plus every row once at the
 * first step after charging began; the reference below walks every
 * rack object after every physics step instead. Sticky cap/hold flags,
 * charge durations and the charge_finish / cc_cv_transition journal
 * must agree exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "core/msb_run.h"
#include "core/priority_aware_coordinator.h"
#include "obs/event_log.h"
#include "util/random.h"

namespace dcbatt::core {
namespace {

using util::Seconds;

/** Per-rack demand on a 3 s grid: a bounded random walk per rack. */
class GridRows final : public trace::DemandRows
{
  public:
    GridRows(int racks, size_t samples, double mean_w, uint64_t seed)
        : racks_(static_cast<size_t>(racks)), samples_(samples)
    {
        util::Rng rng(seed);
        std::vector<double> level(racks_, mean_w);
        data_.reserve(racks_ * samples_);
        for (size_t s = 0; s < samples_; ++s) {
            for (double &w : level) {
                // Most racks hold still between samples, so rows
                // refresh for a few racks at a time.
                if (rng.uniform(0.0, 1.0) < 0.2)
                    w = std::clamp(w + rng.uniform(-800.0, 800.0),
                                   0.6 * mean_w, 1.4 * mean_w);
                data_.push_back(w);
            }
        }
    }

    size_t
    sampleIndexAt(Seconds t) const override
    {
        return std::min(static_cast<size_t>(t.value() / 3.0),
                        samples_ - 1);
    }

    const double *
    row(size_t index) override
    {
        return &data_[index * racks_];
    }

  private:
    size_t racks_;
    size_t samples_;
    std::vector<double> data_;
};

struct TrackCase
{
    std::string name;
    double limitKw;
    double otStartS;
    double otLengthS;
    bool postpone;
};

/**
 * gtest puts the printed parameter in the ctest name. Without this it
 * prints the bytes, which include the name's heap pointer, so the
 * names would change from one build to the next.
 */
void
PrintTo(const TrackCase &c, std::ostream *os)
{
    *os << c.name;
}

/** (time, type, rack) of one tracking event. */
using TrackEvent = std::tuple<double, std::string, int>;

std::vector<TrackEvent>
trackingEvents(const std::vector<obs::EventRecord> &records)
{
    std::vector<TrackEvent> out;
    for (const obs::EventRecord &e : records) {
        if (e.type != "charge_finish" && e.type != "cc_cv_transition")
            continue;
        double rack = -1.0;
        for (const auto &[key, value] : e.nums) {
            if (key == "rack")
                rack = value;
        }
        out.emplace_back(e.tSeconds, e.type, static_cast<int>(rack));
    }
    return out;
}

class MsbRunTracking : public ::testing::TestWithParam<TrackCase>
{
  protected:
    void SetUp() override
    {
        obs::clearEvents();
        obs::setEventLoggingEnabled(true);
    }
    void TearDown() override
    {
        obs::setEventLoggingEnabled(false);
        obs::clearEvents();
    }
};

TEST_P(MsbRunTracking, MatchesFullScan)
{
    const TrackCase &c = GetParam();
    constexpr int kRacks = 64;
    constexpr double kDurationS = 3.0 * 3600.0;

    MsbRunConfig config;
    config.topology.rootKind = power::NodeKind::Msb;
    config.topology.sbsPerMsb = 2;
    config.topology.rppsPerSb = 2;
    config.topology.racksPerRpp = 16;
    config.topology.msbLimit = util::kilowatts(c.limitKw);
    config.topology.sbLimit = util::megawatts(50.0);
    config.topology.rppLimit = util::megawatts(50.0);
    config.topology.priorities = power::makePriorityMix(16, 24, 24);
    config.charger = battery::makeVariableCharger();
    PriorityAwareOptions options;
    options.allowPostponement = c.postpone;
    config.coordinator = std::make_unique<PriorityAwareCoordinator>(
        SlaCurrentCalculator(battery::ChargeTimeModel(),
                             SlaTable::paperDefault()),
        options);
    config.otStart = Seconds(c.otStartS);
    config.otLength = Seconds(c.otLengthS);
    const Seconds charge_start = config.otStart + config.otLength;

    GridRows rows(kRacks, static_cast<size_t>(kDurationS / 3.0) + 2,
                  6000.0, 11);
    sim::EventQueue queue;
    std::vector<RackOutcome> ref(kRacks);
    std::vector<uint8_t> was_cv(kRacks, 0);
    std::vector<TrackEvent> ref_events;
    MsbRun *run_ptr = nullptr;
    MsbRun run(std::move(config), queue, rows, [&](Seconds now) {
        const power::Topology &topo = run_ptr->topology();
        for (int i = 0; i < kRacks; ++i) {
            const power::Rack &rack = *topo.racks()[i];
            RackOutcome &o = ref[static_cast<size_t>(i)];
            if (rack.capAmount().value() > 0.0)
                o.everCapped = true;
            if (rack.shelf().chargingHeld())
                o.everHeld = true;
            if (now > charge_start && !o.chargeDuration
                && rack.shelf().fullyCharged()) {
                o.chargeDuration = now - charge_start;
                ref_events.emplace_back(now.value(), "charge_finish", i);
            }
        }
        for (int i = 0; i < kRacks; ++i) {
            bool cv = topo.racks()[i]->shelf().cvCount() > 0;
            if (cv && !was_cv[static_cast<size_t>(i)])
                ref_events.emplace_back(now.value(), "cc_cv_transition",
                                        i);
            was_cv[static_cast<size_t>(i)] = cv ? 1 : 0;
        }
    });
    run_ptr = &run;
    queue.runUntil(sim::toTicks(Seconds(kDurationS)));
    run.finish();

    int capped = 0;
    int held = 0;
    int finished = 0;
    for (int i = 0; i < kRacks; ++i) {
        const RackOutcome &got = run.racks()[static_cast<size_t>(i)];
        const RackOutcome &want = ref[static_cast<size_t>(i)];
        EXPECT_EQ(got.everCapped, want.everCapped) << "rack " << i;
        EXPECT_EQ(got.everHeld, want.everHeld) << "rack " << i;
        ASSERT_EQ(got.chargeDuration.has_value(),
                  want.chargeDuration.has_value())
            << "rack " << i;
        if (want.chargeDuration) {
            EXPECT_EQ(got.chargeDuration->value(),
                      want.chargeDuration->value())
                << "rack " << i;
        }
        capped += want.everCapped ? 1 : 0;
        held += want.everHeld ? 1 : 0;
        finished += want.chargeDuration ? 1 : 0;
    }
    EXPECT_EQ(trackingEvents(obs::snapshotEvents()), ref_events);

    // Each case must exercise what it is named for.
    EXPECT_GT(finished, 0);
    if (c.otLengthS == 0.0) {
        // Nothing discharged: every rack is full at charge start and
        // finishes at the first step after it, and no rack refreshes
        // then — only the post-start pass can see them.
        for (const RackOutcome &o : run.racks()) {
            ASSERT_TRUE(o.chargeDuration) << "rack " << o.rackId;
            EXPECT_EQ(o.chargeDuration->value(), 1.0);
        }
    } else {
        EXPECT_GT(std::count_if(ref_events.begin(), ref_events.end(),
                                [](const TrackEvent &e) {
                                    return std::get<1>(e)
                                        == "cc_cv_transition";
                                }),
                  0);
    }
    if (c.name == "capping") {
        EXPECT_GT(capped, 0);
    }
    if (c.postpone) {
        EXPECT_GT(held, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MsbRunTracking,
    ::testing::Values(
        // An ample limit: plain recharge after a 2-minute outage.
        TrackCase{"ample", 2500.0, 61.0, 120.0, false},
        // Recharge on top of IT load breaches the limit: throttling,
        // then server caps.
        TrackCase{"capping", 400.0, 61.0, 600.0, false},
        // The same limit with postponement: racks are held instead.
        TrackCase{"postponed", 400.0, 61.0, 600.0, true},
        // A zero-length open transition in the middle of a trace
        // sample: every rack is full when charging begins.
        TrackCase{"zero_ot", 2500.0, 61.0, 0.0, false}),
    [](const ::testing::TestParamInfo<TrackCase> &param) {
        return param.param.name;
    });

/**
 * The paper's event with Algorithm 1: Dynamo's per-tick snapshot reads
 * every rack's setpoint, recharge power, IT load and charging state,
 * and the event-start tick its mean DOD. A resident charge lane
 * answers all of them itself, so no tick may materialize a lane. The
 * plane's own periodic task is stopped and its tick driven after each
 * third physics step instead, so each tick can be bracketed.
 */
TEST(MsbRunLanes, DynamoTicksMaterializeNoLane)
{
    if (!battery::batchChargingEnabled())
        GTEST_SKIP() << "DCBATT_BATCH=off: no lane is ever resident";
    constexpr int kRacks = 316;
    constexpr double kDurationS = 2.0 * 3600.0;
    MsbRunConfig config;
    config.topology.rootKind = power::NodeKind::Msb;
    config.topology.sbsPerMsb = 2;
    config.topology.rppsPerSb = 10;
    config.topology.racksPerRpp = 16;
    config.topology.totalRacks = kRacks;
    config.topology.msbLimit = util::megawatts(2.0);
    config.topology.sbLimit = util::megawatts(50.0);
    config.topology.rppLimit = util::megawatts(50.0);
    config.topology.priorities = power::makePriorityMix(100, 108, 108);
    config.charger = battery::makeVariableCharger();
    auto coordinator = std::make_unique<PriorityAwareCoordinator>(
        SlaCurrentCalculator(battery::ChargeTimeModel(),
                             SlaTable::paperDefault()));
    const PriorityAwareCoordinator &pa = *coordinator;
    config.coordinator = std::move(coordinator);
    config.otStart = Seconds(61.0);
    config.otLength = Seconds(600.0);

    GridRows rows(kRacks, static_cast<size_t>(kDurationS / 3.0) + 2,
                  5800.0, 7);
    sim::EventQueue queue;
    MsbRun *run_ptr = nullptr;
    uint64_t tick_materializations = 0;
    int resident_ticks = 0;
    int event_ticks = 0;
    MsbRun run(std::move(config), queue, rows, [&](Seconds now) {
        if (static_cast<int64_t>(now.value()) % 3 != 0)
            return;
        const battery::ChargeLanes &lanes =
            run_ptr->topology().chargeLanes();
        const uint64_t before = lanes.materializations();
        resident_ticks += lanes.size() > 0 ? 1 : 0;
        run_ptr->plane().tickAll();
        tick_materializations += lanes.materializations() - before;
        event_ticks +=
            run_ptr->plane().rootController().chargingEventActive() ? 1
                                                                    : 0;
    });
    run_ptr = &run;
    run.plane().stop();
    queue.runUntil(sim::toTicks(Seconds(kDurationS)));
    run.finish();

    EXPECT_EQ(tick_materializations, 0u);
    // Not vacuous: ticks ran with lanes resident during an event, and
    // lanes did materialize outside the ticks (commands, evictions).
    EXPECT_GT(resident_ticks, 500);
    EXPECT_GT(event_ticks, 500);
    EXPECT_GT(run.topology().chargeLanes().materializations(), 0u);
    // The grant order is sorted once, when the event is planned; the
    // tick path only confirms it.
    EXPECT_EQ(pa.grantOrderSorts(), 1u);
}

} // namespace
} // namespace dcbatt::core

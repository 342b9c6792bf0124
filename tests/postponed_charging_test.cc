/**
 * @file
 * Tests of the postponed-charging extension (the paper's future
 * work): BBU pause semantics, shelf holds, agent hold/resume with
 * actuation lag, the coordinator's postponement logic, and the
 * end-to-end effect — no server capping below the 1 A floor budget.
 */

#include <gtest/gtest.h>

#include "core/charging_event_sim.h"
#include "core/priority_aware_coordinator.h"
#include "dynamo/agent.h"
#include "trace/trace_generator.h"

namespace dcbatt {
namespace {

using core::PolicyKind;
using core::PriorityAwareCoordinator;
using core::PriorityAwareOptions;
using core::SlaCurrentCalculator;
using core::SlaTable;
using dynamo::OverrideCommand;
using dynamo::RackChargeInfo;
using power::Priority;
using util::Amperes;
using util::Seconds;
using util::Watts;

// --- battery layer ---------------------------------------------------

TEST(BbuPause, PausedPackDrawsNothingAndMakesNoProgress)
{
    battery::BbuModel bbu;
    bbu.forceDod(0.5);
    bbu.startCharging(Amperes(2.0));
    bbu.setPaused(true);
    EXPECT_TRUE(bbu.charging());
    EXPECT_DOUBLE_EQ(bbu.chargingCurrent().value(), 0.0);
    EXPECT_DOUBLE_EQ(bbu.inputPower().value(), 0.0);
    bbu.step(Seconds(600.0));
    EXPECT_NEAR(bbu.dod(), 0.5, 1e-12);
}

TEST(BbuPause, ResumeContinuesWhereItLeftOff)
{
    battery::BbuModel bbu;
    bbu.forceDod(0.5);
    bbu.startCharging(Amperes(2.0));
    bbu.step(Seconds(300.0));
    double dod_mid = bbu.dod();
    bbu.setPaused(true);
    bbu.step(Seconds(1000.0));
    EXPECT_NEAR(bbu.dod(), dod_mid, 1e-12);
    bbu.setPaused(false);
    bbu.step(Seconds(300.0));
    EXPECT_LT(bbu.dod(), dod_mid);
}

TEST(BbuPause, TotalChargeTimeUnchangedByPause)
{
    battery::ChargeTimeModel model;
    battery::BbuModel bbu;
    bbu.forceDod(0.6);
    bbu.startCharging(Amperes(3.0));
    double active = 0.0;
    // Alternate 60 s charging / 60 s paused.
    bool paused = false;
    double t = 0.0;
    while (!bbu.fullyCharged() && t < 6.0 * 3600.0) {
        if (static_cast<int>(t) % 60 == 0) {
            paused = !paused;
            bbu.setPaused(paused);
        }
        bbu.step(Seconds(1.0));
        if (!paused)
            active += 1.0;
        t += 1.0;
    }
    ASSERT_TRUE(bbu.fullyCharged());
    EXPECT_NEAR(active,
                model.chargeTime(0.6, Amperes(3.0)).value(), 3.0);
}

TEST(BbuPause, DischargeClearsPause)
{
    battery::BbuModel bbu;
    bbu.forceDod(0.3);
    bbu.startCharging(Amperes(2.0));
    bbu.setPaused(true);
    bbu.discharge(Watts(1000.0), Seconds(10.0));
    EXPECT_FALSE(bbu.paused());
}

TEST(ShelfHold, HoldsAndResumesAllBbus)
{
    battery::PowerShelf shelf(battery::makeVariableCharger());
    shelf.loseInputPower();
    shelf.step(Seconds(60.0), util::kilowatts(6.0));
    shelf.restoreInputPower();
    ASSERT_GT(shelf.rechargePower().value(), 0.0);
    shelf.holdCharging();
    EXPECT_TRUE(shelf.chargingHeld());
    EXPECT_DOUBLE_EQ(shelf.rechargePower().value(), 0.0);
    EXPECT_TRUE(shelf.anyCharging());  // still in Charging state
    shelf.resumeCharging();
    EXPECT_FALSE(shelf.chargingHeld());
    EXPECT_GT(shelf.rechargePower().value(), 0.0);
}

TEST(ShelfHold, HoldBeforeRestoreAppliesAtChargeStart)
{
    battery::PowerShelf shelf(battery::makeVariableCharger());
    shelf.loseInputPower();
    shelf.step(Seconds(60.0), util::kilowatts(6.0));
    shelf.holdCharging();
    shelf.restoreInputPower();
    EXPECT_TRUE(shelf.anyCharging());
    EXPECT_DOUBLE_EQ(shelf.rechargePower().value(), 0.0);
}

// --- agent layer ------------------------------------------------------

TEST(AgentHold, HoldAndResumeWithActuationLag)
{
    sim::EventQueue queue;
    power::Rack rack(0, "r0", Priority::P3,
                     battery::makeVariableCharger());
    rack.setItDemand(util::kilowatts(6.0));
    dynamo::RackAgent agent(rack, queue, Seconds(20.0));
    rack.loseInputPower();
    rack.step(Seconds(60.0));
    rack.restoreInputPower();

    agent.commandHold();
    EXPECT_TRUE(agent.holdCommanded());
    queue.runUntil(sim::toTicks(Seconds(10.0)));
    EXPECT_FALSE(rack.shelf().chargingHeld());  // lag not elapsed
    queue.runUntil(sim::toTicks(Seconds(21.0)));
    EXPECT_TRUE(rack.shelf().chargingHeld());

    agent.commandResume(Amperes(1.0));
    EXPECT_FALSE(agent.holdCommanded());
    queue.runUntil(sim::toTicks(Seconds(45.0)));
    EXPECT_FALSE(rack.shelf().chargingHeld());
    EXPECT_DOUBLE_EQ(rack.shelf().chargeSetpoint().value(), 1.0);
}

TEST(AgentHold, DuplicateHoldSuppressed)
{
    sim::EventQueue queue;
    power::Rack rack(0, "r0", Priority::P3,
                     battery::makeVariableCharger());
    dynamo::RackAgent agent(rack, queue);
    agent.commandHold();
    size_t pending = queue.pendingCount();
    agent.commandHold();
    EXPECT_EQ(queue.pendingCount(), pending);
    agent.commandResume(Amperes(1.0));
    EXPECT_EQ(queue.pendingCount(), pending + 1);
    agent.commandResume(Amperes(1.0));
    EXPECT_EQ(queue.pendingCount(), pending + 1);
}

// --- coordinator layer -------------------------------------------------

RackChargeInfo
chargingRack(int id, Priority priority, double dod)
{
    RackChargeInfo info;
    info.rackId = id;
    info.priority = priority;
    info.initialDod = dod;
    info.setpoint = Amperes(2.0);
    info.charging = true;
    return info;
}

PriorityAwareCoordinator
makePa(PriorityAwareOptions options)
{
    return PriorityAwareCoordinator(
        SlaCurrentCalculator(battery::ChargeTimeModel(),
                             SlaTable::paperDefault()),
        options);
}

const double kWpa = battery::rackWattsPerAmpere({}).value();

TEST(PostponePlan, HoldsReverseOrderWhenFloorsDontFit)
{
    PriorityAwareOptions options;
    options.allowPostponement = true;
    options.resumeMargin = Watts(0.0);  // exact-count assertions
    auto pa = makePa(options);
    std::vector<RackChargeInfo> racks{
        chargingRack(0, Priority::P1, 0.5),
        chargingRack(1, Priority::P2, 0.5),
        chargingRack(2, Priority::P3, 0.5)};
    // Budget fits only two floors.
    auto commands = pa.planInitial(racks, Watts(2.0 * kWpa));
    int holds = 0;
    for (const auto &cmd : commands) {
        if (cmd.kind == OverrideCommand::Kind::Hold) {
            ++holds;
            EXPECT_EQ(cmd.rackId, 2);  // the P3 rack
        }
    }
    EXPECT_EQ(holds, 1);
}

TEST(PostponePlan, WithoutExtensionNothingIsHeld)
{
    auto pa = makePa({});
    std::vector<RackChargeInfo> racks{
        chargingRack(0, Priority::P1, 0.5),
        chargingRack(1, Priority::P3, 0.5)};
    auto commands = pa.planInitial(racks, Watts(0.0));
    for (const auto &cmd : commands)
        EXPECT_EQ(cmd.kind, OverrideCommand::Kind::SetCurrent);
}

TEST(PostponeTick, HoldsFlooredRacksOnPersistentOverload)
{
    PriorityAwareOptions options;
    options.allowPostponement = true;
    options.resumeMargin = Watts(0.0);  // exact-count assertions
    auto pa = makePa(options);
    std::vector<RackChargeInfo> racks{
        chargingRack(0, Priority::P1, 0.5),
        chargingRack(1, Priority::P3, 0.5)};
    auto plan = pa.planInitial(racks, Watts(2.0 * kWpa));
    // All commands landed (setpoints match commands).
    for (auto &info : racks) {
        for (const auto &cmd : plan) {
            if (cmd.rackId == info.rackId)
                info.setpoint = cmd.current;
        }
    }
    auto commands = pa.onTick(racks, Watts(-0.5 * kWpa));
    ASSERT_FALSE(commands.empty());
    EXPECT_EQ(commands[0].kind, OverrideCommand::Kind::Hold);
    EXPECT_EQ(commands[0].rackId, 1);
}

TEST(PostponeTick, ResumesWhenHeadroomReturns)
{
    PriorityAwareOptions options;
    options.allowPostponement = true;
    options.resumeMargin = Watts(0.0);
    auto pa = makePa(options);
    std::vector<RackChargeInfo> racks{
        chargingRack(0, Priority::P1, 0.5),
        chargingRack(1, Priority::P3, 0.5)};
    auto plan = pa.planInitial(racks, Watts(1.0 * kWpa));  // P3 held
    // Pretend every command landed.
    for (auto &info : racks) {
        for (const auto &cmd : plan) {
            if (cmd.rackId != info.rackId)
                continue;
            if (cmd.kind == OverrideCommand::Kind::Hold) {
                info.setpoint = Amperes(0.0);
                info.held = true;
            } else {
                info.setpoint = cmd.current;
            }
        }
    }
    auto commands = pa.onTick(racks, util::kilowatts(50.0));
    ASSERT_EQ(commands.size(), 1u);
    EXPECT_EQ(commands[0].kind, OverrideCommand::Kind::Resume);
    EXPECT_EQ(commands[0].rackId, 1);
    // The resumed rack's power change is in flight; a second tick
    // with unchanged measurements must not re-issue anything.
    EXPECT_TRUE(pa.onTick(racks, util::kilowatts(50.0)).empty());
}

TEST(PostponeTick, NoResumeWithoutHeadroom)
{
    PriorityAwareOptions options;
    options.allowPostponement = true;
    options.resumeMargin = util::kilowatts(10.0);
    auto pa = makePa(options);
    std::vector<RackChargeInfo> racks{
        chargingRack(0, Priority::P3, 0.5)};
    pa.planInitial(racks, Watts(0.0));  // held
    EXPECT_TRUE(pa.onTick(racks, Watts(500.0)).empty());
}

// --- end to end ------------------------------------------------------

TEST(PostponeEndToEnd, EliminatesCappingBelowFloorBudget)
{
    trace::TraceGenSpec tspec;
    tspec.rackCount = 48;
    tspec.startTime = util::hours(10.0);
    tspec.duration = util::hours(8.0);
    tspec.aggregateMean = util::kilowatts(300.0);
    tspec.aggregateAmplitude = util::kilowatts(15.0);
    tspec.priorities = power::makePriorityMix(16, 16, 16);
    auto traces = trace::generateTraces(tspec);

    // Limit just above the IT peak: the 48-rack floor (18.4 kW) does
    // not fit.
    core::ChargingEventConfig config;
    config.policy = PolicyKind::PriorityAware;
    config.msbLimit = util::kilowatts(322.0);
    config.targetMeanDod = 0.5;
    config.priorities = tspec.priorities;
    config.postEventDuration = util::hours(3.5);

    auto capped = core::runChargingEvent(config, traces);
    EXPECT_GT(capped.maxCap.value(), 0.0);

    config.priorityAwareOptions.allowPostponement = true;
    auto postponed = core::runChargingEvent(config, traces);
    // Transient caps while holds propagate through the 20 s actuation
    // lag are genuine control behaviour; the claim is that capping is
    // not *sustained*: zero ten minutes into the charging event.
    size_t settled = postponed.capPower.indexAt(
        postponed.chargeStart + util::minutes(10.0));
    EXPECT_DOUBLE_EQ(postponed.capPower[settled], 0.0);
    double late_max = 0.0;
    for (size_t i = settled; i < postponed.capPower.size(); ++i)
        late_max = std::max(late_max, postponed.capPower[i]);
    EXPECT_DOUBLE_EQ(late_max, 0.0);
    int held = 0;
    for (const auto &rack : postponed.racks)
        held += rack.everHeld ? 1 : 0;
    EXPECT_GT(held, 0);
    // P1 protection unchanged.
    EXPECT_GE(postponed.slaMetByPriority[0],
              capped.slaMetByPriority[0]);
    // Deferral is the designed trade-off: racks that have not
    // finished by the end of the window must be ones that were
    // postponed, never racks stranded idle — and resumes must have
    // let a majority finish.
    int finished = 0;
    for (const auto &rack : postponed.racks) {
        if (rack.chargeDuration.has_value())
            ++finished;
        else
            EXPECT_TRUE(rack.everHeld) << rack.rackId;
    }
    EXPECT_GE(finished, 24);
}

} // namespace
} // namespace dcbatt

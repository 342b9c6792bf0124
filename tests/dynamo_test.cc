/**
 * @file
 * Tests of the Dynamo control plane: agents (actuation lag, dedup),
 * the capping engine (priority order, ledger semantics), and the
 * breaker controller's escalation ladder.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/local_coordinator.h"

#include "obs/event_log.h"
#include "util/logging.h"
#include "dynamo/agent.h"
#include "dynamo/capping.h"
#include "dynamo/controller.h"
#include "power/topology.h"
#include "util/random.h"

namespace dcbatt::dynamo {
namespace {

using power::Priority;
using power::Rack;
using util::Amperes;
using util::Seconds;
using util::Watts;
using util::kilowatts;

class AgentTest : public ::testing::Test
{
  protected:
    AgentTest()
        : rack_(0, "r0", Priority::P2, battery::makeVariableCharger()),
          agent_(rack_, queue_, Seconds(20.0))
    {
        rack_.setItDemand(kilowatts(6.0));
    }

    void
    dischargeAndRestore(double seconds = 60.0)
    {
        rack_.loseInputPower();
        rack_.step(Seconds(seconds));
        rack_.restoreInputPower();
    }

    sim::EventQueue queue_;
    Rack rack_;
    RackAgent agent_;
};

TEST_F(AgentTest, ReadPaths)
{
    // The agent only actuates; what a controller reads of its rack
    // comes from the rack and its shelf.
    EXPECT_DOUBLE_EQ(agent_.rack().itLoad().value(), 6000.0);
    EXPECT_TRUE(agent_.rack().inputPowerOn());
    EXPECT_FALSE(agent_.rack().shelf().anyCharging());
    dischargeAndRestore();
    EXPECT_TRUE(agent_.rack().shelf().anyCharging());
    EXPECT_GT(agent_.rack().rechargePower().value(), 0.0);
    EXPECT_GT(agent_.rack().inputPower().value(), 6000.0);
    EXPECT_DOUBLE_EQ(agent_.rack().shelf().chargeSetpoint().value(), 2.0);
}

TEST_F(AgentTest, OverrideTakesEffectAfterActuationLag)
{
    dischargeAndRestore();
    agent_.commandOverride(Amperes(1.0));
    // Not yet: 10 s in.
    queue_.runUntil(sim::toTicks(Seconds(10.0)));
    EXPECT_DOUBLE_EQ(rack_.shelf().chargeSetpoint().value(), 2.0);
    // After the 20 s lag (Fig. 11).
    queue_.runUntil(sim::toTicks(Seconds(21.0)));
    EXPECT_DOUBLE_EQ(rack_.shelf().chargeSetpoint().value(), 1.0);
    EXPECT_DOUBLE_EQ(agent_.lastCommanded().value(), 1.0);
}

TEST_F(AgentTest, DuplicateCommandsSuppressed)
{
    dischargeAndRestore();
    agent_.commandOverride(Amperes(3.0));
    size_t pending_after_first = queue_.pendingCount();
    agent_.commandOverride(Amperes(3.0));
    EXPECT_EQ(queue_.pendingCount(), pending_after_first);
    agent_.commandOverride(Amperes(4.0));
    EXPECT_EQ(queue_.pendingCount(), pending_after_first + 1);
}

TEST_F(AgentTest, ClearOverrideImmediate)
{
    dischargeAndRestore();
    agent_.commandOverride(Amperes(1.0));
    queue_.runUntil(sim::toTicks(Seconds(25.0)));
    agent_.clearOverride();
    EXPECT_DOUBLE_EQ(agent_.lastCommanded().value(), 0.0);
    EXPECT_FALSE(rack_.shelf().overrideActive());
}

TEST_F(AgentTest, CapCommands)
{
    agent_.commandCap(kilowatts(1.0));
    EXPECT_DOUBLE_EQ(rack_.itLoad().value(), 5000.0);
    agent_.commandUncap();
    EXPECT_DOUBLE_EQ(rack_.itLoad().value(), 6000.0);
}

// --- capping engine -------------------------------------------------

class CappingTest : public ::testing::Test
{
  protected:
    CappingTest()
    {
        // Two racks of each priority, 6 kW demand each.
        for (int i = 0; i < 6; ++i) {
            racks_.push_back(std::make_unique<Rack>(
                i, util::strf("r%d", i),
                static_cast<Priority>(i / 2),
                battery::makeVariableCharger()));
            racks_.back()->setItDemand(kilowatts(6.0));
            agents_.push_back(std::make_unique<RackAgent>(
                *racks_.back(), queue_));
        }
    }

    Watts
    capOf(int rack)
    {
        return racks_[static_cast<size_t>(rack)]->capAmount();
    }

    sim::EventQueue queue_;
    std::vector<std::unique_ptr<Rack>> racks_;
    std::vector<std::unique_ptr<RackAgent>> agents_;
    CappingEngine engine_;
};

TEST_F(CappingTest, LowPriorityCappedFirst)
{
    // 3 kW reduction fits entirely in the two P3 racks (4.8 kW room).
    Watts applied = engine_.applyReduction(agents_, kilowatts(3.0));
    EXPECT_NEAR(applied.value(), 3000.0, 1.0);
    EXPECT_NEAR(capOf(4).value(), 1500.0, 1.0);
    EXPECT_NEAR(capOf(5).value(), 1500.0, 1.0);
    EXPECT_DOUBLE_EQ(capOf(0).value(), 0.0);
    EXPECT_DOUBLE_EQ(capOf(2).value(), 0.0);
}

TEST_F(CappingTest, SpillsUpThePriorityLadder)
{
    // 40% max cap => each rack can shed 2.4 kW; P3 pair sheds 4.8,
    // P2 pair sheds 4.8, remaining 0.4 comes from P1.
    Watts applied = engine_.applyReduction(agents_, kilowatts(10.0));
    EXPECT_NEAR(applied.value(), 10000.0, 1.0);
    EXPECT_NEAR(capOf(4).value(), 2400.0, 1.0);
    EXPECT_NEAR(capOf(2).value(), 2400.0, 1.0);
    EXPECT_NEAR(capOf(0).value(), 200.0, 1.0);
}

TEST_F(CappingTest, FloorLimitsTotalReduction)
{
    // Total cappable = 6 racks * 2.4 kW = 14.4 kW.
    Watts applied = engine_.applyReduction(agents_, kilowatts(50.0));
    EXPECT_NEAR(applied.value(), 14400.0, 1.0);
    EXPECT_NEAR(engine_.totalCap().value(), 14400.0, 1.0);
}

TEST_F(CappingTest, ZeroReductionIsNoop)
{
    EXPECT_DOUBLE_EQ(
        engine_.applyReduction(agents_, Watts(0.0)).value(), 0.0);
    EXPECT_DOUBLE_EQ(
        engine_.applyReduction(agents_, Watts(-10.0)).value(), 0.0);
}

TEST_F(CappingTest, ReleaseHighestPriorityFirst)
{
    engine_.applyReduction(agents_, kilowatts(10.0));
    Watts released = engine_.release(agents_, kilowatts(1.0));
    EXPECT_NEAR(released.value(), 1000.0, 1.0);
    // P1 rack 0 had 200 W, released first; remainder from rack 1.
    EXPECT_DOUBLE_EQ(capOf(0).value(), 0.0);
    EXPECT_NEAR(capOf(1).value(), 0.0, 1.0);
    // P3 still fully capped.
    EXPECT_NEAR(capOf(4).value(), 2400.0, 1.0);
}

TEST_F(CappingTest, ReleaseOnlyOwnLedger)
{
    // A cap imposed by somebody else must survive this engine's
    // release pass.
    racks_[4]->setCapAmount(kilowatts(2.0));
    Watts released = engine_.release(agents_, kilowatts(5.0));
    EXPECT_DOUBLE_EQ(released.value(), 0.0);
    EXPECT_DOUBLE_EQ(capOf(4).value(), 2000.0);
}

TEST_F(CappingTest, ReleaseAllClearsOwnCapsOnly)
{
    engine_.applyReduction(agents_, kilowatts(3.0));
    racks_[0]->setCapAmount(kilowatts(1.0));  // foreign cap
    engine_.releaseAll(agents_);
    EXPECT_DOUBLE_EQ(engine_.totalCap().value(), 0.0);
    EXPECT_DOUBLE_EQ(capOf(4).value(), 0.0);
    EXPECT_DOUBLE_EQ(capOf(0).value(), 1000.0);
    Watts fleet_cap(0.0);
    for (const auto &rack : racks_)
        fleet_cap += rack->capAmount();
    EXPECT_DOUBLE_EQ(fleet_cap.value(), 1000.0);
}

// The engine before its ledger went dense: caps held per rack id in a
// std::map, totalCap() folding the map in rack-id order on every call.
// Kept here as the reference the dense ledger must match bit for bit.
class MapCappingEngine
{
  public:
    Watts
    applyReduction(AgentSpan agents, Watts reduction)
    {
        Watts applied(0.0);
        if (reduction.value() <= 0.0)
            return applied;
        for (int pri = 2; pri >= 0 && applied < reduction; --pri) {
            std::vector<RackAgent *> members;
            Watts cappable(0.0);
            for (const auto &agent : agents) {
                if (power::priorityIndex(agent->rack().priority()) != pri)
                    continue;
                Watts floor = agent->rack().itDemand() * (1.0 - 0.4);
                Watts room = agent->rack().itLoad() - floor;
                if (room.value() > 0.0) {
                    members.push_back(agent.get());
                    cappable += room;
                }
            }
            if (members.empty() || cappable.value() <= 0.0)
                continue;
            Watts want = util::min(reduction - applied, cappable);
            for (RackAgent *agent : members) {
                Watts floor = agent->rack().itDemand() * (1.0 - 0.4);
                Watts room = agent->rack().itLoad() - floor;
                Watts share = want * (room / cappable);
                agent->commandCap(agent->rack().capAmount() + share);
                ledger_[agent->rackId()] += share.value();
                applied += share;
            }
        }
        return applied;
    }

    Watts
    release(AgentSpan agents, Watts headroom)
    {
        Watts released(0.0);
        if (headroom.value() <= 0.0)
            return released;
        for (int pri = 0; pri <= 2 && released < headroom; ++pri) {
            for (const auto &agent : agents) {
                if (power::priorityIndex(agent->rack().priority()) != pri)
                    continue;
                auto held = ledger_.find(agent->rackId());
                if (held == ledger_.end() || held->second <= 0.0)
                    continue;
                Watts cap = agent->rack().capAmount();
                Watts give = util::min(util::min(cap, Watts(held->second)),
                                       headroom - released);
                if (give.value() <= 0.0)
                    continue;
                agent->commandCap(cap - give);
                held->second -= give.value();
                released += give;
                if (released >= headroom)
                    break;
            }
        }
        return released;
    }

    void
    releaseAll(AgentSpan agents)
    {
        for (const auto &agent : agents) {
            auto held = ledger_.find(agent->rackId());
            if (held == ledger_.end() || held->second <= 0.0)
                continue;
            Watts cap = agent->rack().capAmount();
            agent->commandCap(cap - util::min(cap, Watts(held->second)));
        }
        ledger_.clear();
    }

    Watts
    totalCap() const
    {
        double total = 0.0;
        for (const auto &[rack_id, watts] : ledger_)
            total += watts;
        return Watts(total);
    }

  private:
    std::map<int, double> ledger_;
};

TEST(CappingLedger, DenseLedgerMatchesMapReference)
{
    // Overlapping MSB/SB/RPP engines, as a control plane builds them,
    // on two identical topologies: one driven through CappingEngine,
    // one through the map reference, with the same random sequence of
    // demand changes, reductions and releases. Every total and every
    // rack's cap must agree bit for bit after every operation.
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 3;
    spec.racksPerRpp = 5;
    spec.priorities = power::makePriorityMix(8, 11, 11);
    struct World
    {
        std::unique_ptr<power::Topology> topo;
        sim::EventQueue queue;
        std::vector<std::unique_ptr<RackAgent>> agents;
        /** Agent scopes: MSB first, then SBs, then RPPs. */
        std::vector<AgentSpan> scopes;
    };
    auto build = [&spec](World &w) {
        w.topo = std::make_unique<power::Topology>(power::Topology::build(
            spec, battery::makeVariableCharger()));
        for (Rack *rack : w.topo->racks()) {
            rack->setItDemand(kilowatts(6.0));
            w.agents.push_back(
                std::make_unique<RackAgent>(*rack, w.queue));
        }
        for (power::NodeKind kind : {power::NodeKind::Msb,
                                     power::NodeKind::Sb,
                                     power::NodeKind::Rpp}) {
            for (power::PowerNode *node : w.topo->nodesOfKind(kind)) {
                w.scopes.push_back(AgentSpan(w.agents).subspan(
                    node->rowBegin(), node->racksBelow().size()));
            }
        }
    };
    World dense;
    World ref;
    build(dense);
    build(ref);
    const size_t n_scopes = dense.scopes.size();
    ASSERT_EQ(n_scopes, 1u + 2u + 6u);
    std::vector<CappingEngine> engines(n_scopes);
    std::vector<MapCappingEngine> ref_engines(n_scopes);
    const int n_racks = static_cast<int>(dense.agents.size());

    util::Rng rng(4242);
    int reductions = 0;
    int releases = 0;
    int release_alls = 0;
    for (int op = 0; op < 4000; ++op) {
        auto k = static_cast<size_t>(rng.uniform(0.0, 1.0)
                                     * static_cast<double>(n_scopes));
        double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.2) {
            auto id = static_cast<int>(rng.uniform(0.0, 1.0) * n_racks);
            Watts demand(rng.uniform(2000.0, 12000.0));
            dense.topo->rack(id).setItDemand(demand);
            ref.topo->rack(id).setItDemand(demand);
        } else if (roll < 0.55) {
            Watts want(rng.uniform(0.0, 30000.0));
            Watts a = engines[k].applyReduction(dense.scopes[k], want);
            Watts b = ref_engines[k].applyReduction(ref.scopes[k], want);
            ASSERT_EQ(a.value(), b.value()) << "op " << op;
            ++reductions;
        } else if (roll < 0.95) {
            Watts headroom(rng.uniform(0.0, 20000.0));
            Watts a = engines[k].release(dense.scopes[k], headroom);
            Watts b = ref_engines[k].release(ref.scopes[k], headroom);
            ASSERT_EQ(a.value(), b.value()) << "op " << op;
            ++releases;
        } else {
            engines[k].releaseAll(dense.scopes[k]);
            ref_engines[k].releaseAll(ref.scopes[k]);
            ++release_alls;
        }
        for (size_t e = 0; e < n_scopes; ++e) {
            ASSERT_EQ(engines[e].totalCap().value(),
                      ref_engines[e].totalCap().value())
                << "engine " << e << " after op " << op;
        }
        for (int id = 0; id < n_racks; ++id) {
            ASSERT_EQ(dense.topo->rack(id).capAmount().value(),
                      ref.topo->rack(id).capAmount().value())
                << "rack " << id << " after op " << op;
        }
    }
    EXPECT_GT(reductions, 1000);
    EXPECT_GT(releases, 1000);
    EXPECT_GT(release_alls, 100);
    double held = 0.0;
    for (const CappingEngine &e : engines)
        held += e.totalCap().value();
    EXPECT_GT(held, 0.0);
}

// --- breaker controller ---------------------------------------------

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
    {
        power::TopologySpec spec;
        spec.rootKind = power::NodeKind::Rpp;
        spec.racksPerRpp = 4;
        spec.rppLimit = kilowatts(30.0);
        spec.priorities = {Priority::P1, Priority::P2, Priority::P3,
                           Priority::P3};
        topo_ = std::make_unique<power::Topology>(power::Topology::build(
            spec, battery::makeOriginalCharger()));
        for (Rack *rack : topo_->racks())
            rack->setItDemand(kilowatts(6.0));
    }

    std::unique_ptr<power::Topology> topo_;
    sim::EventQueue queue_;
};

TEST_F(ControllerTest, CapsOnOverloadWithoutCoordinator)
{
    core::LocalOnlyCoordinator coordinator;
    ControlPlane plane(*topo_, topo_->root(), queue_, &coordinator);
    EXPECT_EQ(plane.controllers().size(), 1u);

    // Force a discharge/recharge cycle: 4 racks * ~1.9 kW recharge
    // pushes the 24 kW IT load over the 30 kW RPP limit.
    power::Topology::startOpenTransition(topo_->root());
    topo_->stepRacks(Seconds(60.0));
    power::Topology::endOpenTransition(topo_->root());
    topo_->stepRacks(Seconds(1.0));
    ASSERT_GT(topo_->root().inputPower().value(), 30e3);

    plane.tickAll();
    EXPECT_GT(plane.totalCap().value(), 0.0);
    EXPECT_LE(topo_->root().inputPower().value(), 30e3 + 1.0);
    EXPECT_GT(plane.rootController().maxCapObserved().value(), 0.0);
    EXPECT_TRUE(plane.rootController().chargingEventActive());
}

TEST_F(ControllerTest, ReleasesCapsWhenHeadroomReturns)
{
    core::LocalOnlyCoordinator coordinator;
    ControlPlane plane(*topo_, topo_->root(), queue_, &coordinator);
    power::Topology::startOpenTransition(topo_->root());
    topo_->stepRacks(Seconds(60.0));
    power::Topology::endOpenTransition(topo_->root());
    topo_->stepRacks(Seconds(1.0));
    plane.tickAll();
    ASSERT_GT(plane.totalCap().value(), 0.0);

    // Let charging finish (power drops), then tick again: the caps
    // must be released.
    for (int i = 0; i < 4800; ++i)
        topo_->stepRacks(Seconds(1.0));
    queue_.runUntil(queue_.now() + sim::toTicks(Seconds(1.0)));
    plane.tickAll();
    EXPECT_DOUBLE_EQ(plane.totalCap().value(), 0.0);
}

TEST_F(ControllerTest, ChargingEventLifecycle)
{
    core::LocalOnlyCoordinator coordinator;
    ControlPlane plane(*topo_, topo_->root(), queue_, &coordinator);
    EXPECT_FALSE(plane.rootController().chargingEventActive());
    EXPECT_EQ(plane.rootController().chargingEventCount(), 0);

    power::Topology::startOpenTransition(topo_->root());
    topo_->stepRacks(Seconds(30.0));
    power::Topology::endOpenTransition(topo_->root());
    plane.tickAll();
    EXPECT_TRUE(plane.rootController().chargingEventActive());
    EXPECT_EQ(plane.rootController().chargingEventCount(), 1);

    // Finish the charge; the event must close.
    for (int i = 0; i < 4800; ++i)
        topo_->stepRacks(Seconds(1.0));
    plane.tickAll();
    EXPECT_FALSE(plane.rootController().chargingEventActive());
}

TEST_F(ControllerTest, PeriodicTickViaQueue)
{
    core::LocalOnlyCoordinator coordinator;
    ControllerConfig config;
    config.tickPeriod = Seconds(3.0);
    ControlPlane plane(*topo_, topo_->root(), queue_, &coordinator,
                       config);
    plane.start();
    power::Topology::startOpenTransition(topo_->root());
    topo_->stepRacks(Seconds(60.0));
    power::Topology::endOpenTransition(topo_->root());
    topo_->stepRacks(Seconds(1.0));
    queue_.runUntil(sim::toTicks(Seconds(4.0)));
    EXPECT_GT(plane.totalCap().value(), 0.0);
    plane.stop();
}

TEST_F(ControllerTest, FloorWarningOncePerOverloadEpisode)
{
    // A ceiling below what capping can shed hits the capping floor on
    // every tick of an overload episode. The warning comes once per
    // episode; overload_close counts the episode's floor ticks.
    core::LocalOnlyCoordinator coordinator;
    ControlPlane plane(*topo_, topo_->root(), queue_, &coordinator);
    BreakerController &rpp = plane.rootController();
    const Seconds dt(1.0);
    topo_->stepRacks(dt);
    obs::clearEvents();
    obs::setEventLoggingEnabled(true);
    const util::LogLevel level = util::logLevel();
    util::setLogLevel(util::LogLevel::Warn);
    testing::internal::CaptureStderr();
    const std::vector<int> episode_ticks{5, 9};
    for (int ticks : episode_ticks) {
        // 24 kW of IT load can shed at most 40 %: a 10 kW ceiling
        // stays out of reach.
        rpp.setLimitCeiling(kilowatts(10.0));
        for (int t = 0; t < ticks; ++t) {
            plane.tickAll();
            topo_->stepRacks(dt);
        }
        // Headroom returns: the episode closes and the caps go.
        rpp.setLimitCeiling(kilowatts(100.0));
        plane.tickAll();
        topo_->stepRacks(dt);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    util::setLogLevel(level);
    obs::setEventLoggingEnabled(false);

    size_t warnings = 0;
    for (size_t at = err.find("capping floor reached");
         at != std::string::npos;
         at = err.find("capping floor reached", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, episode_ticks.size()) << err;
    std::vector<double> floor_ticks;
    for (const obs::EventRecord &e : obs::snapshotEvents()) {
        if (e.type != "overload_close")
            continue;
        for (const auto &[key, value] : e.nums) {
            if (key == "floor_ticks")
                floor_ticks.push_back(value);
        }
    }
    obs::clearEvents();
    EXPECT_EQ(floor_ticks, (std::vector<double>{5.0, 9.0}));
    EXPECT_DOUBLE_EQ(plane.totalCap().value(), 0.0);
}

TEST_F(ControllerTest, AgentLookup)
{
    core::LocalOnlyCoordinator coordinator;
    ControlPlane plane(*topo_, topo_->root(), queue_, &coordinator);
    EXPECT_EQ(plane.agentFor(2).rackId(), 2);
    EXPECT_EQ(plane.agents().size(), 4u);
}

TEST_F(ControllerTest, RejectsAgentsThatAreNotTheNodesRows)
{
    // The controller addresses agent k as row rowBegin() + k, so a
    // span that is not exactly the node's rows must not construct.
    std::vector<std::unique_ptr<RackAgent>> agents;
    for (int id : {1, 0, 2, 3}) {
        agents.push_back(
            std::make_unique<RackAgent>(topo_->rack(id), queue_));
    }
    auto make = [&](AgentSpan span) {
        BreakerController(topo_->root(), span, queue_, nullptr,
                          ControllerConfig{}, *topo_);
    };
    EXPECT_DEATH(make(AgentSpan(agents).subspan(1)),
                 "agents are not the node's rows");
    EXPECT_DEATH(make(AgentSpan(agents)),
                 "agents are not the node's rows");
    std::swap(agents[0], agents[1]);
    make(AgentSpan(agents));  // racks 0..3 in row order
}

} // namespace
} // namespace dcbatt::dynamo

/**
 * @file
 * Unit tests of the charging coordinators (Algorithm 1, the global
 * equal-rate baseline, and the local no-op), driven with synthetic
 * RackChargeInfo snapshots — no simulator in the loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/global_coordinator.h"
#include "core/local_coordinator.h"
#include "core/priority_aware_coordinator.h"
#include "util/random.h"

namespace dcbatt::core {
namespace {

using dynamo::OverrideCommand;
using dynamo::RackChargeInfo;
using power::Priority;
using util::Amperes;
using util::Watts;
using util::kilowatts;

RackChargeInfo
rack(int id, Priority priority, double dod, double setpoint = 2.0,
     bool charging = true)
{
    RackChargeInfo info;
    info.rackId = id;
    info.priority = priority;
    info.initialDod = dod;
    info.setpoint = Amperes(setpoint);
    info.itLoad = kilowatts(6.0);
    info.charging = charging;
    return info;
}

double
commandFor(const std::vector<OverrideCommand> &commands, int id)
{
    for (const auto &cmd : commands) {
        if (cmd.rackId == id)
            return cmd.current.value();
    }
    return -1.0;
}

// Rack-level CC wall watts per ampere with default BbuParams: ~384 W.
const double kWpa = battery::rackWattsPerAmpere({}).value();

PriorityAwareCoordinator
makePa(PriorityAwareOptions options = {})
{
    SlaCurrentCalculator calc(battery::ChargeTimeModel(),
                              SlaTable::paperDefault());
    return PriorityAwareCoordinator(std::move(calc), options);
}

// --- local ----------------------------------------------------------

TEST(LocalCoordinator, NeverIssuesCommands)
{
    LocalOnlyCoordinator local("variable");
    std::vector<RackChargeInfo> racks{rack(0, Priority::P1, 0.5)};
    EXPECT_TRUE(local.planInitial(racks, kilowatts(100.0)).empty());
    EXPECT_TRUE(local.onTick(racks, kilowatts(-50.0)).empty());
    EXPECT_EQ(local.name(), "variable");
    EXPECT_FALSE(local.managesCurrents());
}

// --- global ----------------------------------------------------------

TEST(GlobalCoordinator, UniformRateFromAvailablePower)
{
    GlobalRateCoordinator global;
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P1, 0.9), rack(1, Priority::P2, 0.1),
        rack(2, Priority::P3, 0.5)};
    // Budget for exactly 3 racks * 3 A * wpa.
    auto commands =
        global.planInitial(racks, Watts(3.0 * 3.0 * kWpa));
    ASSERT_EQ(commands.size(), 3u);
    for (const auto &cmd : commands)
        EXPECT_DOUBLE_EQ(cmd.current.value(), 3.0);
    EXPECT_DOUBLE_EQ(global.currentRate().value(), 3.0);
    EXPECT_TRUE(global.managesCurrents());
}

TEST(GlobalCoordinator, RateClampedToHardwareRange)
{
    GlobalRateCoordinator global;
    std::vector<RackChargeInfo> racks{rack(0, Priority::P2, 0.5)};
    global.planInitial(racks, kilowatts(1000.0));
    EXPECT_DOUBLE_EQ(global.currentRate().value(), 5.0);
    global.planInitial(racks, Watts(10.0));
    EXPECT_DOUBLE_EQ(global.currentRate().value(), 1.0);
}

TEST(GlobalCoordinator, IgnoresNonChargingRacks)
{
    GlobalRateCoordinator global;
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P2, 0.5),
        rack(1, Priority::P2, 0.0, 0.0, false)};
    auto commands =
        global.planInitial(racks, Watts(2.0 * kWpa));
    ASSERT_EQ(commands.size(), 1u);
    EXPECT_EQ(commands[0].rackId, 0);
    EXPECT_DOUBLE_EQ(global.currentRate().value(), 2.0);
}

TEST(GlobalCoordinator, ReducesOnOverload)
{
    GlobalRateCoordinator global;
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P2, 0.5, 4.0), rack(1, Priority::P2, 0.5,
                                              4.0)};
    global.planInitial(racks, Watts(2.0 * 4.0 * kWpa));
    ASSERT_DOUBLE_EQ(global.currentRate().value(), 4.0);
    // Overload of one amp-equivalent per rack.
    auto commands = global.onTick(racks, Watts(-2.0 * kWpa));
    ASSERT_EQ(commands.size(), 2u);
    EXPECT_NEAR(global.currentRate().value(), 3.0, 0.1001);
}

TEST(GlobalCoordinator, NoReductionWhileCommandsInFlight)
{
    GlobalRateCoordinator global;
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P2, 0.5, 4.0), rack(1, Priority::P2, 0.5,
                                              4.0)};
    global.planInitial(racks, Watts(2.0 * 2.0 * kWpa));
    ASSERT_DOUBLE_EQ(global.currentRate().value(), 2.0);
    // Measured setpoints still 4 A (commands not landed): the deficit
    // is already covered by the in-flight reduction.
    EXPECT_TRUE(global.onTick(racks, Watts(-2.0 * kWpa)).empty());
}

TEST(GlobalCoordinator, NeverRaisesRate)
{
    GlobalRateCoordinator global;
    std::vector<RackChargeInfo> racks{rack(0, Priority::P2, 0.5, 2.0)};
    global.planInitial(racks, Watts(2.0 * kWpa));
    EXPECT_TRUE(global.onTick(racks, kilowatts(500.0)).empty());
    EXPECT_DOUBLE_EQ(global.currentRate().value(), 2.0);
}

// --- priority-aware (Algorithm 1) ------------------------------------

TEST(PriorityAware, GrantsSlaCurrentsWhenBudgetAmple)
{
    auto pa = makePa();
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P1, 0.5), rack(1, Priority::P2, 0.5),
        rack(2, Priority::P3, 0.5)};
    auto commands = pa.planInitial(racks, kilowatts(100.0));
    ASSERT_EQ(commands.size(), 3u);
    // P1 at DOD 0.5 needs ~3 A for the 30-min SLA; P2 ~1.4 A for
    // 60 min; P3 meets 90 min at the 1 A floor.
    EXPECT_GT(commandFor(commands, 0), 2.5);
    EXPECT_GT(commandFor(commands, 1), 1.0);
    EXPECT_LT(commandFor(commands, 1), 2.0);
    EXPECT_DOUBLE_EQ(commandFor(commands, 2), 1.0);
}

TEST(PriorityAware, EverythingAtFloorWhenNoBudget)
{
    auto pa = makePa();
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P1, 0.5), rack(1, Priority::P2, 0.5)};
    auto commands = pa.planInitial(racks, Watts(0.0));
    ASSERT_EQ(commands.size(), 2u);
    EXPECT_DOUBLE_EQ(commandFor(commands, 0), 1.0);
    EXPECT_DOUBLE_EQ(commandFor(commands, 1), 1.0);
}

TEST(PriorityAware, HighestPriorityLowestDodFirst)
{
    auto pa = makePa();
    // Budget covers the floor of all four plus ONE upgrade of ~2 A.
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P2, 0.3), rack(1, Priority::P1, 0.8),
        rack(2, Priority::P1, 0.4), rack(3, Priority::P3, 0.2)};
    double p1_low_extra =
        (makePa().calculator().requiredCurrent(0.4, Priority::P1)
             .value()
         - 1.0)
        * kWpa;
    auto commands = pa.planInitial(
        racks, Watts(4.0 * kWpa + p1_low_extra + 1.0));
    // Only rack 2 (P1, lowest DOD) gets its SLA current; the strict
    // greedy stops at rack 1 (P1, higher DOD, bigger ask).
    EXPECT_GT(commandFor(commands, 2), 2.0);
    EXPECT_DOUBLE_EQ(commandFor(commands, 1), 1.0);
    EXPECT_DOUBLE_EQ(commandFor(commands, 0), 1.0);
    EXPECT_DOUBLE_EQ(commandFor(commands, 3), 1.0);
}

TEST(PriorityAware, SkipGreedyKeepsGranting)
{
    PriorityAwareOptions options;
    options.strictGreedy = false;
    auto pa = makePa(options);
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P1, 0.9), rack(1, Priority::P2, 0.5)};
    // Budget: floors + the P2 upgrade only (P1's big ask won't fit).
    double p2_extra =
        (makePa().calculator().requiredCurrent(0.5, Priority::P2)
             .value()
         - 1.0)
        * kWpa;
    auto commands =
        pa.planInitial(racks, Watts(2.0 * kWpa + p2_extra + 1.0));
    EXPECT_DOUBLE_EQ(commandFor(commands, 0), 1.0);
    EXPECT_GT(commandFor(commands, 1), 1.0);
}

TEST(PriorityAware, OverloadDemotesReverseOrder)
{
    auto pa = makePa();
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P1, 0.5), rack(1, Priority::P2, 0.5),
        rack(2, Priority::P3, 0.6)};
    auto plan = pa.planInitial(racks, kilowatts(100.0));
    // Pretend all commands landed.
    for (auto &info : racks)
        info.setpoint = Amperes(commandFor(plan, info.rackId));
    // Small deficit: only the P3 rack should be demoted... but it is
    // already at the floor, so the P2 rack goes next.
    auto commands = pa.onTick(racks, Watts(-10.0));
    ASSERT_EQ(commands.size(), 1u);
    EXPECT_EQ(commands[0].rackId, 1);
    EXPECT_DOUBLE_EQ(commands[0].current.value(), 1.0);
}

TEST(PriorityAware, BigOverloadReachesP1Last)
{
    auto pa = makePa();
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P1, 0.5), rack(1, Priority::P2, 0.5)};
    auto plan = pa.planInitial(racks, kilowatts(100.0));
    for (auto &info : racks)
        info.setpoint = Amperes(commandFor(plan, info.rackId));
    auto commands = pa.onTick(racks, kilowatts(-50.0));
    // Both demoted; P2 first in the command order.
    ASSERT_EQ(commands.size(), 2u);
    EXPECT_EQ(commands[0].rackId, 1);
    EXPECT_EQ(commands[1].rackId, 0);
}

TEST(PriorityAware, PendingRelieveSuppressesDemotion)
{
    auto pa = makePa();
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P1, 0.5, 2.0), rack(1, Priority::P3, 0.5,
                                              5.0)};
    pa.planInitial(racks, Watts(2.0 * kWpa + 800.0));
    // P3 was commanded to 1 A but still measures 5 A: the in-flight
    // relief (4 A * wpa) covers this deficit; nothing new is issued.
    auto commands = pa.onTick(racks, Watts(-3.0 * kWpa));
    EXPECT_TRUE(commands.empty());
}

TEST(PriorityAware, NoActionWithPositiveHeadroomByDefault)
{
    auto pa = makePa();
    std::vector<RackChargeInfo> racks{rack(0, Priority::P1, 0.9)};
    pa.planInitial(racks, Watts(0.0));
    EXPECT_TRUE(pa.onTick(racks, kilowatts(300.0)).empty());
}

TEST(PriorityAware, RestoreOnHeadroomRegrants)
{
    PriorityAwareOptions options;
    options.restoreOnHeadroom = true;
    options.restoreMargin = kilowatts(1.0);
    auto pa = makePa(options);
    std::vector<RackChargeInfo> racks{rack(0, Priority::P1, 0.5, 1.0)};
    pa.planInitial(racks, Watts(0.0));  // floored
    ASSERT_DOUBLE_EQ(pa.planStates().at(0).commanded.value(), 1.0);
    auto commands = pa.onTick(racks, kilowatts(50.0));
    ASSERT_EQ(commands.size(), 1u);
    EXPECT_GT(commands[0].current.value(), 2.0);
}

TEST(PriorityAware, AblationIgnoreDodSortsByIdWithinPriority)
{
    PriorityAwareOptions options;
    options.ignoreDod = true;
    auto pa = makePa(options);
    // Two P1 racks; higher-DOD rack has the lower id, so with DOD
    // ignored it is granted first and exhausts the budget.
    std::vector<RackChargeInfo> racks{
        rack(0, Priority::P1, 0.7), rack(1, Priority::P1, 0.2)};
    double rack0_extra =
        (makePa().calculator().requiredCurrent(0.7, Priority::P1)
             .value()
         - 1.0)
        * kWpa;
    auto commands =
        pa.planInitial(racks, Watts(2.0 * kWpa + rack0_extra + 1.0));
    EXPECT_GT(commandFor(commands, 0), 2.0);
    EXPECT_DOUBLE_EQ(commandFor(commands, 1), 1.0);
}

/**
 * The grant order as planInitial() emits it: one command per charging
 * rack, in order (no postponement, so no holds).
 */
std::vector<int>
plannedOrder(PriorityAwareCoordinator &pa,
             const std::vector<RackChargeInfo> &racks)
{
    std::vector<int> ids;
    for (const OverrideCommand &cmd : pa.planInitial(racks, kilowatts(40.0)))
        ids.push_back(cmd.rackId);
    return ids;
}

/** A test-local std::sort of the charging racks on Algorithm 1's key. */
std::vector<int>
sortedOrder(const std::vector<RackChargeInfo> &racks,
            const PriorityAwareOptions &options)
{
    std::vector<const RackChargeInfo *> order;
    for (const RackChargeInfo &info : racks) {
        if (info.charging)
            order.push_back(&info);
    }
    std::sort(order.begin(), order.end(),
              [&options](const RackChargeInfo *a, const RackChargeInfo *b) {
                  if (!options.ignorePriority && a->priority != b->priority)
                      return power::priorityIndex(a->priority)
                          < power::priorityIndex(b->priority);
                  if (!options.ignoreDod && a->initialDod != b->initialDod)
                      return a->initialDod < b->initialDod;
                  return a->rackId < b->rackId;
              });
    std::vector<int> ids;
    for (const RackChargeInfo *info : order)
        ids.push_back(info->rackId);
    return ids;
}

TEST(PriorityAware, CachedGrantOrderMatchesSortOfChargingRacks)
{
    util::Rng rng(2204);
    for (int knobs = 0; knobs < 4; ++knobs) {
        for (bool duplicates : {false, true}) {
            PriorityAwareOptions options;
            options.ignorePriority = (knobs & 1) != 0;
            options.ignoreDod = (knobs & 2) != 0;
            auto pa = makePa(options);
            // A few DOD levels, so equal DODs fall to the id tie-break.
            auto new_event = [&rng] {
                std::vector<RackChargeInfo> racks;
                for (int i = 0; i < 48; ++i) {
                    auto p = static_cast<Priority>(
                        static_cast<int>(rng.uniform(0.0, 3.0)));
                    double dod =
                        0.1 * std::floor(rng.uniform(1.0, 6.0));
                    racks.push_back(rack(47 - i, p, dod));
                }
                return racks;
            };
            std::vector<RackChargeInfo> racks = new_event();
            if (duplicates) {
                // A rack id twice with the same key (a tie), and
                // another twice with a different DOD (no tie).
                racks.push_back(racks[5]);
                racks.push_back(racks[9]);
                racks.back().initialDod += 0.05;
            }
            uint64_t sorts = pa.grantOrderSorts();
            for (int event = 0; event < 2; ++event) {
                for (int tick = 0; tick < 25; ++tick) {
                    for (RackChargeInfo &info : racks)
                        info.charging = rng.uniform(0.0, 1.0) < 0.7;
                    ASSERT_EQ(plannedOrder(pa, racks),
                              sortedOrder(racks, options))
                        << "knobs " << knobs << " event " << event
                        << " tick " << tick;
                    pa.onTick(racks, kilowatts(-5.0));
                }
                // Without a tie the order is sorted at most once per
                // event, whatever the charging mask does: at the first,
                // and at the second only if its new DODs are in the key.
                if (!duplicates) {
                    const bool resorts = event == 0 || !options.ignoreDod;
                    EXPECT_EQ(pa.grantOrderSorts(), sorts + (resorts ? 1 : 0))
                        << "knobs " << knobs << " event " << event;
                }
                sorts = pa.grantOrderSorts();
                // The next event: the same racks with new DODs.
                std::vector<RackChargeInfo> next = new_event();
                for (size_t i = 0; i < next.size(); ++i)
                    racks[i].initialDod = next[i].initialDod;
            }
        }
    }
}

TEST(PriorityAware, NameAndManagement)
{
    auto pa = makePa();
    EXPECT_EQ(pa.name(), "priority-aware");
    EXPECT_TRUE(pa.managesCurrents());
}

} // namespace
} // namespace dcbatt::core

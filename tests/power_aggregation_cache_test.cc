/**
 * @file
 * Property test of the incremental power-aggregation cache: after any
 * sequence of mutations (demand changes, caps, open transitions,
 * physics steps, overrides, BBU fail/repair), every node's cached
 * inputPower() equals a brute-force recursive recompute — exactly, not
 * approximately, because the cache refresh sums children in the same
 * order with the same expressions. The same holds for the fleet rows
 * and totals stepRacks() keeps when it skips no-op rack steps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "power/topology.h"
#include "util/random.h"

namespace dcbatt::power {
namespace {

using util::Seconds;
using util::Watts;

/**
 * Cache-free recursive aggregate, associating the sum exactly like
 * PowerNode::refreshPowerCache (children in order, left to right).
 */
Watts
bruteForcePower(const PowerNode &node)
{
    if (node.rack())
        return node.rack()->inputPower();
    Watts total(0.0);
    for (const PowerNode *child : node.children())
        total += bruteForcePower(*child);
    return total;
}

/** Compare every node's cached aggregate against the brute force. */
void
expectCachesExact(const Topology &topo, int step)
{
    const PowerNode &root = topo.root();
    ASSERT_EQ(root.inputPower().value(),
              bruteForcePower(root).value())
        << "root mismatch after mutation " << step;
    for (NodeKind kind : {NodeKind::Sb, NodeKind::Rpp}) {
        for (const PowerNode *node :
             const_cast<Topology &>(topo).nodesOfKind(kind)) {
            ASSERT_EQ(node->inputPower().value(),
                      bruteForcePower(*node).value())
                << toString(kind) << " " << node->name()
                << " mismatch after mutation " << step;
        }
    }
}

TEST(PowerAggregationCache, RandomizedMutationsStayExact)
{
    TopologySpec spec;
    spec.rootKind = NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 4;
    Topology topo =
        Topology::build(spec, battery::makeVariableCharger());
    const int n = static_cast<int>(topo.racks().size());

    util::Rng rng(2024);
    for (int i = 0; i < n; ++i)
        topo.rack(i).setItDemand(util::kilowatts(6.0));

    for (int step = 0; step < 400; ++step) {
        int rack_id = static_cast<int>(rng.uniform(0.0, 1.0)
                                       * (n - 1));
        double roll = rng.uniform(0.0, 1.0);
        Rack &rack = topo.rack(rack_id);
        if (roll < 0.3) {
            rack.setItDemand(Watts(rng.uniform(500.0, 12000.0)));
        } else if (roll < 0.45) {
            rack.setCapAmount(Watts(rng.uniform(0.0, 3000.0)));
        } else if (roll < 0.55) {
            rack.loseInputPower();
        } else if (roll < 0.7) {
            rack.restoreInputPower();
        } else if (roll < 0.8) {
            rack.shelf().setOverride(
                util::Amperes(rng.uniform(1.0, 5.0)));
        } else if (roll < 0.9) {
            topo.stepRacks(Seconds(1.0));
        } else if (roll < 0.95) {
            rack.shelf().failBbu(
                static_cast<int>(rng.uniform(0.0, 1.0) * 5.0));
        } else {
            rack.shelf().repairBbu(
                static_cast<int>(rng.uniform(0.0, 1.0) * 5.0));
        }
        expectCachesExact(topo, step);
    }
}

TEST(PowerAggregationCache, ObserveBreakersRefreshesBottomUp)
{
    // observeBreakers() batch-refreshes every node before the thermal
    // observation; the refreshed caches must equal a cold recompute.
    TopologySpec spec;
    spec.rootKind = NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 4;
    Topology topo =
        Topology::build(spec, battery::makeVariableCharger());
    for (Rack *rack : topo.racks())
        rack->setItDemand(util::kilowatts(7.5));

    topo.startOpenTransition(topo.root());
    topo.stepRacks(Seconds(30.0));
    topo.endOpenTransition(topo.root());
    for (int t = 0; t < 60; ++t) {
        topo.stepRacks(Seconds(1.0));
        topo.observeBreakers(Seconds(1.0));
        expectCachesExact(topo, t);
    }
}

// ---------------------------------------------------------------------
// stepRacks() leaves the rows of quiescent, untouched racks alone,
// keeps the totals when no row changed, and skips the whole step when
// the topology is quiet(). The differential below drives one topology
// through stepRacks() and a twin through the plain per-rack
// Rack::step() walk, applies the same random mutations to both, and
// after every step requires the elided snapshot to equal a full
// refresh of the twin, bit for bit: fleet rows, totals, the refreshed
// row list, shelf step counters and node caches. Long untouched
// stretches on a settled fleet make the whole-step skip fire.
// ---------------------------------------------------------------------

/** Everything a full row refresh reads from one rack. */
struct FullRow
{
    double itLoadW, rechargeW, capW;
    int inputOn, held, fullyCharged, chargingBbus, cvBbus;
    bool operator==(const FullRow &) const = default;
};

FullRow
fullRow(const Rack &r)
{
    return {r.itLoad().value(),
            r.rechargePower().value(),
            r.capAmount().value(),
            r.inputPowerOn() ? 1 : 0,
            r.shelf().chargingHeld() ? 1 : 0,
            r.shelf().fullyCharged() ? 1 : 0,
            r.shelf().chargingCount(),
            r.shelf().cvCount()};
}

FullRow
snapshotRow(const battery::FleetState &fleet, size_t i)
{
    return {fleet.itLoadW[i],        fleet.rechargeW[i], fleet.capW[i],
            fleet.inputOn[i],        fleet.held[i],      fleet.fullyCharged[i],
            fleet.chargingBbus[i],   fleet.cvBbus[i]};
}

void
expectElisionExact(const Topology &topo, const Topology &twin, int step)
{
    const battery::FleetState &fleet = topo.fleet();
    Topology::StepPowerTotals full;
    for (size_t i = 0; i < twin.racks().size(); ++i) {
        const Rack &ref = *twin.racks()[i];
        FullRow want = fullRow(ref);
        ASSERT_TRUE(snapshotRow(fleet, i) == want)
            << "row " << i << " stale after mutation " << step;
        ASSERT_TRUE(fullRow(*topo.racks()[i]) == want)
            << "rack " << i << " diverged after mutation " << step;
        const auto &a = topo.racks()[i]->shelf().stepStats();
        const auto &b = ref.shelf().stepStats();
        ASSERT_EQ(a.quiescentSteps, b.quiescentSteps) << "rack " << i;
        ASSERT_EQ(a.lockstepSteps, b.lockstepSteps) << "rack " << i;
        ASSERT_EQ(a.fullSteps, b.fullSteps) << "rack " << i;
        ASSERT_EQ(a.materializations, b.materializations)
            << "rack " << i;
        ASSERT_EQ(topo.racks()[i]->sawOutage(), ref.sawOutage());
        if (want.inputOn)
            full.itW += want.itLoadW;
        full.rechargeW += want.rechargeW;
        full.capW += want.capW;
    }
    const Topology::StepPowerTotals &got = topo.stepPowerTotals();
    ASSERT_EQ(got.itW, full.itW) << "after mutation " << step;
    ASSERT_EQ(got.rechargeW, full.rechargeW) << "after mutation " << step;
    ASSERT_EQ(got.capW, full.capW) << "after mutation " << step;
}

TEST(PowerAggregationCache, RackStepElisionMatchesFullRefresh)
{
    TopologySpec spec;
    spec.rootKind = NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 4;
    Topology topo = Topology::build(spec, battery::makeVariableCharger());
    Topology twin = Topology::build(spec, battery::makeVariableCharger());
    const int n = static_cast<int>(topo.racks().size());
    std::vector<PowerNode *> rpps = topo.nodesOfKind(NodeKind::Rpp);
    std::vector<PowerNode *> twin_rpps = twin.nodesOfKind(NodeKind::Rpp);
    std::vector<uint8_t> rpp_off(rpps.size(), 0);

    // Apply one mutation to the same rack of both topologies.
    auto both = [&](int id, auto &&mutate) {
        mutate(topo.rack(id));
        mutate(twin.rack(id));
    };
    for (int i = 0; i < n; ++i)
        both(i, [](Rack &r) { r.setItDemand(util::kilowatts(6.0)); });

    util::Rng rng(77);
    int steps = 0;
    int quiet_steps = 0;
    int completions = 0;
    int m = 0;
    // One step of both topologies, checked against the twin. The rows
    // a per-rack pass refreshes are those of racks not quiescent now
    // or touched since the last step.
    auto step = [&](Seconds dt) {
        std::vector<size_t> want_rows;
        int charging_before = 0;
        for (size_t i = 0; i < topo.racks().size(); ++i) {
            const Rack &r = *topo.racks()[i];
            bool quiescent = r.inputPowerOn() && !r.shelf().anyCharging();
            if (!quiescent || r.powerTouched())
                want_rows.push_back(i);
            charging_before += r.shelf().anyCharging() ? 1 : 0;
        }
        // quiet() may lag a step behind (a rack that finished
        // charging at the last step was active then), never lead.
        if (topo.quiet()) {
            ++quiet_steps;
            ASSERT_TRUE(want_rows.empty() && charging_before == 0)
                << "after mutation " << m;
        }
        topo.stepRacks(dt);
        for (Rack *r : twin.racks())
            r->step(dt);
        int charging_after = 0;
        for (const Rack *r : topo.racks())
            charging_after += r->shelf().anyCharging() ? 1 : 0;
        completions += std::max(0, charging_before - charging_after);
        ++steps;
        ASSERT_EQ(topo.refreshedRows(), want_rows)
            << "after mutation " << m;
        expectElisionExact(topo, twin, m);
    };
    auto any_charging = [&] {
        return std::any_of(topo.racks().begin(), topo.racks().end(),
                           [](const Rack *r) {
                               return r->shelf().anyCharging();
                           });
    };

    for (m = 0; m < 1500; ++m) {
        auto id = static_cast<int>(rng.uniform(0.0, 1.0) * n);
        double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.2) {
            Watts demand(rng.uniform(500.0, 12000.0));
            both(id, [demand](Rack &r) { r.setItDemand(demand); });
            // A read right after a touch, as a controller's tick does:
            // the elision must not mistake the leaf cache it
            // revalidates for an untouched rack.
            if (rng.uniform(0.0, 1.0) < 0.3) {
                (void)topo.root().inputPower();
                (void)twin.root().inputPower();
            }
        } else if (roll < 0.27) {
            Watts cap(rng.uniform(0.0, 2000.0));
            both(id, [cap](Rack &r) { r.setCapAmount(cap); });
        } else if (roll < 0.3) {
            both(id, [](Rack &r) { r.uncap(); });
        } else if (roll < 0.34) {
            // Open transition on one RPP, or its restore.
            auto k = static_cast<size_t>(id) % rpps.size();
            if (rpp_off[k]) {
                Topology::endOpenTransition(*rpps[k]);
                Topology::endOpenTransition(*twin_rpps[k]);
            } else {
                Topology::startOpenTransition(*rpps[k]);
                Topology::startOpenTransition(*twin_rpps[k]);
            }
            rpp_off[k] ^= 1;
        } else if (roll < 0.38) {
            bool held = topo.rack(id).shelf().chargingHeld();
            both(id, [held](Rack &r) {
                if (held)
                    r.shelf().resumeCharging();
                else
                    r.shelf().holdCharging();
            });
        } else if (roll < 0.4) {
            auto bbu = static_cast<int>(rng.uniform(0.0, 1.0) * 6.0);
            bool healthy = topo.rack(id).shelf().bbuHealthy(bbu);
            both(id, [healthy, bbu](Rack &r) {
                if (healthy)
                    r.shelf().failBbu(bbu);
                else
                    r.shelf().repairBbu(bbu);
            });
        } else if (roll < 0.45) {
            // A read that revalidates node caches between steps.
            (void)topo.root().inputPower();
            (void)twin.root().inputPower();
        } else if (roll < 0.47) {
            // Settle the fleet — power back, holds released, charged
            // to full — then run a long stretch of 1 s steps with a
            // rare single touch that keeps every rack quiescent.
            for (size_t k = 0; k < rpps.size(); ++k) {
                if (!rpp_off[k])
                    continue;
                Topology::endOpenTransition(*rpps[k]);
                Topology::endOpenTransition(*twin_rpps[k]);
                rpp_off[k] = 0;
            }
            for (int i = 0; i < n; ++i) {
                if (topo.rack(i).shelf().chargingHeld())
                    both(i, [](Rack &r) { r.shelf().resumeCharging(); });
            }
            for (int k = 0; k < 400 && any_charging(); ++k)
                step(Seconds(120.0));
            ASSERT_FALSE(any_charging()) << "after mutation " << m;
            for (int k = 0; k < 60; ++k) {
                double touch = rng.uniform(0.0, 1.0);
                auto who = static_cast<int>(rng.uniform(0.0, 1.0) * n);
                if (touch < 0.04) {
                    Watts cap(rng.uniform(0.0, 2000.0));
                    both(who, [cap](Rack &r) { r.setCapAmount(cap); });
                } else if (touch < 0.06) {
                    both(who, [](Rack &r) { r.uncap(); });
                } else if (touch < 0.1) {
                    Watts demand(rng.uniform(500.0, 12000.0));
                    both(who,
                         [demand](Rack &r) { r.setItDemand(demand); });
                }
                step(Seconds(1.0));
                if (k % 7 == 0) {
                    topo.observeBreakers(Seconds(1.0));
                    twin.observeBreakers(Seconds(1.0));
                    expectCachesExact(topo, m);
                }
            }
        } else {
            // Mostly 1 s steps; long ones carry charging to completion.
            Seconds dt(roll < 0.9 ? 1.0 : 120.0);
            step(dt);
            if (roll < 0.7) {
                topo.observeBreakers(dt);
                twin.observeBreakers(dt);
                expectCachesExact(topo, m);
            }
        }
        if (HasFatalFailure())
            return;
    }
    // The random walk must have exercised what it claims to.
    EXPECT_GT(steps, 500);
    EXPECT_GT(quiet_steps, 500);
    EXPECT_GT(completions, 0);
    uint64_t quiescent = 0;
    for (const Rack *r : topo.racks())
        quiescent += r->shelf().stepStats().quiescentSteps;
    EXPECT_GT(quiescent, 0u);
}

} // namespace
} // namespace dcbatt::power

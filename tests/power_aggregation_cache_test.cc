/**
 * @file
 * Property test of the incremental power-aggregation cache: after any
 * sequence of mutations (demand changes, caps, open transitions,
 * physics steps, overrides, BBU fail/repair), every node's cached
 * inputPower() equals a brute-force recursive recompute — exactly, not
 * approximately, because the cache refresh sums children in the same
 * order with the same expressions. The same holds for the fleet rows
 * and totals stepRacks() keeps when it skips no-op rack steps, and for
 * a topology that takes its demand as whole rows through
 * applyDemandRow() against a twin that takes it rack by rack.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "power/topology.h"
#include "util/random.h"

namespace dcbatt::power {
namespace {

using util::Seconds;
using util::Watts;

/**
 * Cache-free recursive aggregate, associating the sum exactly like
 * PowerTree's refresh (children in order, left to right).
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
        // A lane step of stepRacks() is a per-pack Rack::step().
        ASSERT_EQ(a.lockstepSteps + a.fullSteps,
                  b.lockstepSteps + b.fullSteps)
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

// ---------------------------------------------------------------------
// Topology::applyDemandRow() stores a trace row without touching any
// rack: it keeps `itLoadW` current itself, marks the tree cache stale
// and has the next step re-fold the totals, so a quiet topology stays
// quiet across demand rows. The differential below feeds one topology
// its demand as rows and a twin the same demand through per-rack
// Rack::setItDemand(), applies the same random caps, open transitions,
// holds, fail/repair and cache reads to both, steps both through
// stepRacks() + observeBreakers(), and after every step requires bit
// equality of the fleet rows, the totals, every node's inputPower()
// and the shelf step counters. refreshedRows() must list exactly the
// rows a per-rack pass would refresh on each side: the twin's also
// hold the rows its demand touched, the row path's never do.
// ---------------------------------------------------------------------

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

template <typename T>
bool
sameColumn(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size()
        && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/** Every node of @p topo, in creation order within each kind. */
std::vector<const PowerNode *>
allNodes(Topology &topo)
{
    std::vector<const PowerNode *> out;
    for (NodeKind kind : {NodeKind::Msb, NodeKind::Sb, NodeKind::Rpp,
                          NodeKind::RackNode}) {
        for (const PowerNode *node : topo.nodesOfKind(kind))
            out.push_back(node);
    }
    return out;
}

void
expectTwinsExact(Topology &topo, Topology &twin, int m)
{
    const battery::FleetState &a = topo.fleet();
    const battery::FleetState &b = twin.fleet();
    ASSERT_TRUE(sameColumn(a.itDemandW, b.itDemandW)) << "after " << m;
    ASSERT_TRUE(sameColumn(a.capW, b.capW)) << "after " << m;
    ASSERT_TRUE(sameColumn(a.itLoadW, b.itLoadW)) << "after " << m;
    ASSERT_TRUE(sameColumn(a.rechargeW, b.rechargeW)) << "after " << m;
    ASSERT_TRUE(sameColumn(a.inputOn, b.inputOn)) << "after " << m;
    ASSERT_TRUE(sameColumn(a.held, b.held)) << "after " << m;
    ASSERT_TRUE(sameColumn(a.fullyCharged, b.fullyCharged))
        << "after " << m;
    ASSERT_TRUE(sameColumn(a.chargingBbus, b.chargingBbus))
        << "after " << m;
    ASSERT_TRUE(sameColumn(a.cvBbus, b.cvBbus)) << "after " << m;
    const Topology::StepPowerTotals &ta = topo.stepPowerTotals();
    const Topology::StepPowerTotals &tb = twin.stepPowerTotals();
    ASSERT_TRUE(sameBits(ta.itW, tb.itW)) << "after " << m;
    ASSERT_TRUE(sameBits(ta.rechargeW, tb.rechargeW)) << "after " << m;
    ASSERT_TRUE(sameBits(ta.capW, tb.capW)) << "after " << m;
    std::vector<const PowerNode *> na = allNodes(topo);
    std::vector<const PowerNode *> nb = allNodes(twin);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t k = 0; k < na.size(); ++k) {
        ASSERT_TRUE(sameBits(na[k]->inputPower().value(),
                             nb[k]->inputPower().value()))
            << na[k]->name() << " after " << m;
    }
    for (size_t i = 0; i < topo.racks().size(); ++i) {
        const auto &sa = topo.racks()[i]->shelf().stepStats();
        const auto &sb = twin.racks()[i]->shelf().stepStats();
        ASSERT_EQ(sa.quiescentSteps, sb.quiescentSteps) << "rack " << i;
        ASSERT_EQ(sa.lockstepSteps, sb.lockstepSteps) << "rack " << i;
        ASSERT_EQ(sa.fullSteps, sb.fullSteps) << "rack " << i;
        ASSERT_EQ(topo.racks()[i]->sawOutage(),
                  twin.racks()[i]->sawOutage());
    }
}

/** The rows a per-rack pass over @p topo's racks would refresh now. */
std::vector<size_t>
rowsToRefresh(const Topology &topo)
{
    std::vector<size_t> rows;
    for (size_t i = 0; i < topo.racks().size(); ++i) {
        const Rack &r = *topo.racks()[i];
        if (!r.inputPowerOn() || r.shelf().anyCharging()
            || r.powerTouched())
            rows.push_back(i);
    }
    return rows;
}

TEST(PowerAggregationCache, DemandRowMatchesPerRackDemand)
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
    std::vector<const PowerNode *> nodes = allNodes(topo);
    std::vector<const PowerNode *> twin_nodes = allNodes(twin);
    std::vector<uint8_t> rpp_off(rpps.size(), 0);
    std::vector<double> row(static_cast<size_t>(n), 6000.0);

    util::Rng rng(4242);
    auto both = [&](int id, auto &&mutate) {
        mutate(topo.rack(id));
        mutate(twin.rack(id));
    };
    // A new trace row: most racks move, some hold their demand.
    auto apply_row = [&] {
        for (double &w : row) {
            if (rng.uniform(0.0, 1.0) < 0.8)
                w = rng.uniform(500.0, 12000.0);
        }
        topo.applyDemandRow(row.data());
        for (int i = 0; i < n; ++i)
            twin.rack(i).setItDemand(Watts(row[static_cast<size_t>(i)]));
    };
    apply_row();

    int m = 0;
    int steps = 0;
    int quiet_row_steps = 0;
    bool row_since_step = false;
    auto step = [&](Seconds dt) {
        std::vector<size_t> want = rowsToRefresh(topo);
        std::vector<size_t> twin_want = rowsToRefresh(twin);
        if (topo.quiet() && row_since_step)
            ++quiet_row_steps;
        topo.stepRacks(dt);
        twin.stepRacks(dt);
        topo.observeBreakers(dt);
        twin.observeBreakers(dt);
        ++steps;
        row_since_step = false;
        ASSERT_EQ(topo.refreshedRows(), want) << "after " << m;
        ASSERT_EQ(twin.refreshedRows(), twin_want) << "after " << m;
        ASSERT_TRUE(std::includes(twin_want.begin(), twin_want.end(),
                                  want.begin(), want.end()))
            << "after " << m;
        expectTwinsExact(topo, twin, m);
    };
    auto row_or_step = [&](int k) {
        // A 3 s trace on 1 s physics steps.
        if (k % 3 == 0) {
            apply_row();
            row_since_step = true;
        }
        step(Seconds(1.0));
    };
    auto any_charging = [&] {
        return std::any_of(topo.racks().begin(), topo.racks().end(),
                           [](const Rack *r) {
                               return r->shelf().anyCharging();
                           });
    };

    for (m = 0; m < 1200; ++m) {
        auto id = static_cast<int>(rng.uniform(0.0, 1.0) * n);
        double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.15) {
            apply_row();
            row_since_step = true;
        } else if (roll < 0.22) {
            Watts cap(rng.uniform(0.0, 2000.0));
            both(id, [cap](Rack &r) { r.setCapAmount(cap); });
        } else if (roll < 0.25) {
            both(id, [](Rack &r) { r.uncap(); });
        } else if (roll < 0.29) {
            auto k = static_cast<size_t>(id) % rpps.size();
            if (rpp_off[k]) {
                Topology::endOpenTransition(*rpps[k]);
                Topology::endOpenTransition(*twin_rpps[k]);
            } else {
                Topology::startOpenTransition(*rpps[k]);
                Topology::startOpenTransition(*twin_rpps[k]);
            }
            rpp_off[k] ^= 1;
        } else if (roll < 0.33) {
            bool held = topo.rack(id).shelf().chargingHeld();
            both(id, [held](Rack &r) {
                if (held)
                    r.shelf().resumeCharging();
                else
                    r.shelf().holdCharging();
            });
        } else if (roll < 0.35) {
            auto bbu = static_cast<int>(rng.uniform(0.0, 1.0) * 6.0);
            bool healthy = topo.rack(id).shelf().bbuHealthy(bbu);
            both(id, [healthy, bbu](Rack &r) {
                if (healthy)
                    r.shelf().failBbu(bbu);
                else
                    r.shelf().repairBbu(bbu);
            });
        } else if (roll < 0.42) {
            // A read between steps, on the row path's side only: its
            // lazy re-sum must match the twin's.
            auto k = static_cast<size_t>(rng.uniform(0.0, 1.0)
                                         * static_cast<double>(
                                             nodes.size()));
            ASSERT_TRUE(sameBits(nodes[k]->inputPower().value(),
                                 twin_nodes[k]->inputPower().value()))
                << nodes[k]->name() << " after " << m;
        } else if (roll < 0.44) {
            // Settle the fleet, then run a quiet stretch on which the
            // trace keeps moving.
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
            ASSERT_FALSE(any_charging()) << "after " << m;
            for (int k = 0; k < 60; ++k) {
                if (rng.uniform(0.0, 1.0) < 0.05) {
                    auto who =
                        static_cast<int>(rng.uniform(0.0, 1.0) * n);
                    Watts cap(rng.uniform(0.0, 2000.0));
                    both(who, [cap](Rack &r) { r.setCapAmount(cap); });
                }
                row_or_step(k);
            }
        } else {
            step(Seconds(roll < 0.9 ? 1.0 : 120.0));
        }
        if (HasFatalFailure())
            return;
    }
    // The walk must have exercised what it claims to: the row path
    // stays quiet across demand rows.
    EXPECT_GT(steps, 500);
    EXPECT_GT(quiet_row_steps, 50);
}

} // namespace
} // namespace dcbatt::power

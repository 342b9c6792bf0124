/**
 * @file
 * Cross-MSB budget splitter: priority semantics, caps, and the audit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "core/region_budget.h"
#include "util/random.h"

namespace dcbatt::core {
namespace {

MsbBudgetReport
report(int index, double it_w, double p1_w, double p2_w, double p3_w,
       double breaker_w, int suite = 0, int building = 0)
{
    MsbBudgetReport r;
    r.msbIndex = index;
    r.suite = suite;
    r.building = building;
    r.itW = it_w;
    r.demandW = {p1_w, p2_w, p3_w};
    r.breakerLimitW = breaker_w;
    return r;
}

TEST(RegionBudget, ItIsGrantedFirst)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 1000.0;
    // IT alone exceeds the budget; charging must get nothing.
    std::vector<MsbBudgetReport> reports = {
        report(0, 800.0, 100.0, 100.0, 100.0, 5000.0),
        report(1, 600.0, 100.0, 100.0, 100.0, 5000.0),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    EXPECT_NEAR(out.itGrantedW, 1000.0, 1e-6);
    EXPECT_NEAR(out.itUnmetW, 400.0, 1e-6);
    for (size_t c = 0; c < 3; ++c)
        EXPECT_EQ(out.classGrantedW[c], 0.0);
    EXPECT_EQ(out.headroomGrantedW, 0.0);
    auditRegionBudget(config, reports, out);
}

TEST(RegionBudget, HigherClassNeverStarves)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 1500.0;
    // 1000 W of IT, then 600 W of P1 demand against 500 W left:
    // P1 gets the full remainder, P2/P3 get zero.
    std::vector<MsbBudgetReport> reports = {
        report(0, 500.0, 300.0, 200.0, 200.0, 5000.0),
        report(1, 500.0, 300.0, 200.0, 200.0, 5000.0),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    EXPECT_NEAR(out.itGrantedW, 1000.0, 1e-6);
    EXPECT_NEAR(out.classGrantedW[0], 500.0, 1e-6);
    EXPECT_NEAR(out.classUnmetW[0], 100.0, 1e-6);
    EXPECT_EQ(out.classGrantedW[1], 0.0);
    EXPECT_EQ(out.classGrantedW[2], 0.0);
    auditRegionBudget(config, reports, out);
}

TEST(RegionBudget, ProportionalWithinClass)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 300.0;
    // No IT; P1 demand 100 vs 200 against 300 available → both fully
    // met. Shrink budget to 150 → 50/100 proportional split.
    std::vector<MsbBudgetReport> reports = {
        report(0, 0.0, 100.0, 0.0, 0.0, 5000.0),
        report(1, 0.0, 200.0, 0.0, 0.0, 5000.0),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    EXPECT_NEAR(out.classGrantW[0][0], 100.0, 1e-6);
    EXPECT_NEAR(out.classGrantW[0][1], 200.0, 1e-6);
    auditRegionBudget(config, reports, out);

    config.regionBudgetW = 150.0;
    out = splitRegionBudget(config, reports);
    EXPECT_NEAR(out.classGrantW[0][0], 50.0, 1e-3);
    EXPECT_NEAR(out.classGrantW[0][1], 100.0, 1e-3);
    auditRegionBudget(config, reports, out);
}

TEST(RegionBudget, SuiteCapBindsAndBudgetReroutes)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 1000.0;
    config.suiteLimitW = {300.0, 1000.0};
    // MSB 0 (suite 0) wants 500 but its suite caps at 300; the
    // blocked 200 must flow to MSB 1 (suite 1) instead of stranding.
    std::vector<MsbBudgetReport> reports = {
        report(0, 0.0, 500.0, 0.0, 0.0, 5000.0, /*suite=*/0),
        report(1, 0.0, 700.0, 0.0, 0.0, 5000.0, /*suite=*/1),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    EXPECT_NEAR(out.grantW[0], 300.0, 1e-3);
    EXPECT_NEAR(out.grantW[1], 700.0, 1e-3);
    auditRegionBudget(config, reports, out);
}

TEST(RegionBudget, BuildingCapBinds)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 2000.0;
    config.buildingLimitW = {600.0};
    std::vector<MsbBudgetReport> reports = {
        report(0, 400.0, 300.0, 0.0, 0.0, 5000.0, 0, /*building=*/0),
        report(1, 400.0, 300.0, 0.0, 0.0, 5000.0, 1, /*building=*/0),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    EXPECT_NEAR(out.grantW[0] + out.grantW[1], 600.0, 1e-3);
    auditRegionBudget(config, reports, out);
}

TEST(RegionBudget, HeadroomSpreadsResidualUpToBreaker)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 1000.0;
    // Demand totals 300 W; the 700 W residual becomes headroom,
    // spread proportionally to remaining breaker capacity. MSB 0's
    // tiny breaker (180 W) binds: 150 W of demand + 30 W headroom;
    // the rest of the residual flows to MSB 1.
    std::vector<MsbBudgetReport> reports = {
        report(0, 100.0, 50.0, 0.0, 0.0, 180.0),
        report(1, 100.0, 50.0, 0.0, 0.0, 5000.0),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    EXPECT_NEAR(out.headroomGrantedW, 700.0, 1e-3);
    EXPECT_NEAR(out.residualW, 0.0, 1e-3);
    // Proportional to remaining capacity: 30 W vs 4850 W of
    // post-demand breaker headroom.
    EXPECT_NEAR(out.headroomGrantW[0], 700.0 * 30.0 / 4880.0, 1e-3);
    EXPECT_NEAR(out.headroomGrantW[1], 700.0 * 4850.0 / 4880.0, 1e-3);
    EXPECT_LE(out.grantW[0], 180.0 + 1e-9);
    auditRegionBudget(config, reports, out);
}

TEST(RegionBudget, ResidualOnlyWhenEveryChainIsBlocked)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 10000.0;
    std::vector<MsbBudgetReport> reports = {
        report(0, 100.0, 0.0, 0.0, 0.0, 500.0),
        report(1, 100.0, 0.0, 0.0, 0.0, 500.0),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    // Breakers cap total grants at 1000; the other 9000 W stays
    // residual, which the audit accepts because no chain has headroom.
    EXPECT_NEAR(out.residualW, 9000.0, 1e-3);
    auditRegionBudget(config, reports, out);
}

TEST(RegionBudget, EmptyFleet)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 500.0;
    std::vector<MsbBudgetReport> reports;
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    EXPECT_TRUE(out.grantW.empty());
    EXPECT_NEAR(out.residualW, 500.0, 1e-6);
    auditRegionBudget(config, reports, out);
}

// ---------------------------------------------------------------------
// An independent oracle. The caps form a tree (region -> building ->
// suite -> MSB breaker), so the grantable totals are the rank function
// of a polymatroid: rank(d) = min(cap, sum of the children's ranks),
// computed bottom-up, with an MSB leaf at min(breaker, demand). Filling
// IT and then the classes one by one to a maximal vector grants each
// prefix its rank, so class k's total must be
// rank(IT + P1..Pk) - rank(IT + P1..Pk-1).
// ---------------------------------------------------------------------

/** One random tree instance (report.building is its suite's). */
struct TreeInstance
{
    RegionBudgetConfig config;
    std::vector<MsbBudgetReport> reports;
};

/** rank() of the per-MSB demands @p demand over @p inst's cap tree. */
double
treeRank(const TreeInstance &inst, const std::vector<double> &demand)
{
    const RegionBudgetConfig &c = inst.config;
    const double inf = std::numeric_limits<double>::infinity();
    auto cap = [inf](const std::vector<double> &caps, int i) {
        return static_cast<size_t>(i) < caps.size()
            ? caps[static_cast<size_t>(i)]
            : inf;
    };
    int suites = 0;
    int buildings = 0;
    for (const MsbBudgetReport &r : inst.reports) {
        suites = std::max(suites, r.suite + 1);
        buildings = std::max(buildings, r.building + 1);
    }
    std::vector<double> suite(static_cast<size_t>(suites), 0.0);
    std::vector<int> building_of(suite.size(), -1);
    for (size_t i = 0; i < inst.reports.size(); ++i) {
        const MsbBudgetReport &r = inst.reports[i];
        suite[static_cast<size_t>(r.suite)] +=
            std::min(std::max(demand[i], 0.0), r.breakerLimitW);
        building_of[static_cast<size_t>(r.suite)] = r.building;
    }
    std::vector<double> building(static_cast<size_t>(buildings), 0.0);
    for (size_t s = 0; s < suite.size(); ++s) {
        if (building_of[s] >= 0) {
            building[static_cast<size_t>(building_of[s])] +=
                std::min(cap(c.suiteLimitW, static_cast<int>(s)),
                         suite[s]);
        }
    }
    double region = 0.0;
    for (size_t b = 0; b < building.size(); ++b)
        region += std::min(cap(c.buildingLimitW, static_cast<int>(b)),
                           building[b]);
    return std::min(c.regionBudgetW, region);
}

TreeInstance
randomTree(util::Rng &rng)
{
    TreeInstance inst;
    const int buildings = 1 + static_cast<int>(rng.uniform(0.0, 3.0));
    const int suites = buildings
        + static_cast<int>(rng.uniform(0.0, 9.0 - buildings + 1.0));
    const int msbs = 1 + static_cast<int>(rng.uniform(0.0, 12.0));
    // Caps from ample to binding; a missing entry means no cap.
    for (int s = 0; s < suites; ++s)
        inst.config.suiteLimitW.push_back(rng.uniform(0.6e6, 5.0e6));
    if (rng.uniform(0.0, 1.0) < 0.2)
        inst.config.suiteLimitW.pop_back();
    for (int b = 0; b < buildings; ++b)
        inst.config.buildingLimitW.push_back(rng.uniform(1.0e6, 9.0e6));
    double total = 0.0;
    for (int m = 0; m < msbs; ++m) {
        // Suite s sits in building s % buildings: every building has
        // one, and the suites form a tree.
        const int s = static_cast<int>(rng.uniform(0.0, suites));
        MsbBudgetReport r = report(
            m, rng.uniform(0.2e6, 1.8e6), rng.uniform(0.0, 0.4e6),
            rng.uniform(0.0, 0.4e6), rng.uniform(0.0, 0.4e6),
            rng.uniform(0.8e6, 2.5e6), s, s % buildings);
        if (rng.uniform(0.0, 1.0) < 0.15)
            r.demandW[1] = 0.0;
        total += r.itW + r.demandW[0] + r.demandW[1] + r.demandW[2];
        inst.reports.push_back(r);
    }
    inst.config.regionBudgetW = total * rng.uniform(0.3, 1.3);
    // Few proportional passes leave the most to the greedy mop-up.
    inst.config.passes = rng.uniform(0.0, 1.0) < 0.5 ? 2 : 8;
    return inst;
}

TEST(RegionBudget, ClassTotalsMatchPolymatroidRank)
{
    util::Rng rng(2205);
    int binding = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        const TreeInstance inst = randomTree(rng);
        const RegionBudgetOutcome out =
            splitRegionBudget(inst.config, inst.reports);
        std::vector<double> prefix(inst.reports.size());
        for (size_t i = 0; i < prefix.size(); ++i)
            prefix[i] = inst.reports[i].itW;
        double last = treeRank(inst, prefix);
        ASSERT_NEAR(out.itGrantedW, last, 1e-8) << "trial " << trial;
        for (size_t c = 0; c < 3; ++c) {
            for (size_t i = 0; i < prefix.size(); ++i)
                prefix[i] += inst.reports[i].demandW[c];
            const double rank = treeRank(inst, prefix);
            ASSERT_NEAR(out.classGrantedW[c], rank - last, 1e-8)
                << "trial " << trial << " class " << c;
            binding += out.classUnmetW[c] > 1.0 ? 1 : 0;
            last = rank;
        }
        auditRegionBudget(inst.config, inst.reports, out);
    }
    // The instances must bind somewhere, or the ranks are just sums.
    EXPECT_GT(binding, 5000);
}

TEST(RegionBudget, SameUnblockedChainSplitsInProportionToDemand)
{
    RegionBudgetConfig config;
    // 1 MW of IT, then 900 kW of P1 against 600 kW left. MSBs 0 and 1
    // share suite 0 with ample caps; MSB 2's suite binds at 500 kW.
    config.regionBudgetW = 1.6e6;
    config.suiteLimitW = {5.0e6, 0.4e6 + 0.1e6};
    config.buildingLimitW = {9.0e6};
    std::vector<MsbBudgetReport> reports = {
        report(0, 0.3e6, 0.25e6, 0.0, 0.0, 2.5e6, 0, 0),
        report(1, 0.3e6, 0.45e6, 0.0, 0.0, 2.5e6, 0, 0),
        report(2, 0.4e6, 0.2e6, 0.0, 0.0, 2.5e6, 1, 0),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    EXPECT_NEAR(out.itGrantedW, 1.0e6, 1e-6);
    // MSB 2's chain holds 100 kW of its 200 kW; MSBs 0 and 1 split
    // in proportion to their demand.
    EXPECT_LE(out.classGrantW[0][2], 0.1e6 + 1e-6);
    const double share0 = out.classGrantW[0][0] / 0.25e6;
    const double share1 = out.classGrantW[0][1] / 0.45e6;
    EXPECT_GT(share0, 0.0);
    EXPECT_LT(share0, 1.0);
    EXPECT_NEAR(share0, share1, 1e-12);
    EXPECT_NEAR(out.classGrantedW[0], 0.6e6, 1e-6);
    auditRegionBudget(config, reports, out);
}

TEST(RegionBudgetDeathTest, AuditCatchesOverCommit)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 100.0;
    std::vector<MsbBudgetReport> reports = {
        report(0, 100.0, 0.0, 0.0, 0.0, 500.0),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    out.grantW[0] += 50.0;  // tamper: grant above the region budget
    EXPECT_DEATH(auditRegionBudget(config, reports, out),
                 "over-commits");
}

TEST(RegionBudgetDeathTest, AuditCatchesPriorityInversion)
{
    RegionBudgetConfig config;
    config.regionBudgetW = 1000.0;
    std::vector<MsbBudgetReport> reports = {
        report(0, 0.0, 300.0, 300.0, 0.0, 5000.0),
    };
    RegionBudgetOutcome out = splitRegionBudget(config, reports);
    // Tamper: withhold part of the P1 grant while region budget and
    // breaker headroom both remain — unmet demand with headroom is
    // exactly the inversion the audit must reject. (The total grant
    // shrinks too, so conservation and decomposition stay intact.)
    out.classGrantW[0][0] -= 100.0;
    out.grantW[0] -= 100.0;
    EXPECT_DEATH(auditRegionBudget(config, reports, out),
                 "class 0 demand");
}

} // namespace
} // namespace dcbatt::core

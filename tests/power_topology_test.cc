/**
 * @file
 * Tests of the power-hierarchy topology builder, aggregation, priority
 * mixing, and open-transition scheduling.
 */

#include <gtest/gtest.h>

#include <vector>

#include "power/topology.h"

namespace dcbatt::power {
namespace {

using util::Seconds;
using util::kilowatts;

TopologySpec
smallMsbSpec()
{
    TopologySpec spec;
    spec.rootKind = NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 4;
    return spec;
}

TEST(PriorityMix, CountsAreExact)
{
    auto mix = makePriorityMix(89, 142, 85);
    ASSERT_EQ(mix.size(), 316u);
    std::array<int, 3> counts{0, 0, 0};
    for (Priority p : mix)
        ++counts[static_cast<size_t>(priorityIndex(p))];
    EXPECT_EQ(counts[0], 89);
    EXPECT_EQ(counts[1], 142);
    EXPECT_EQ(counts[2], 85);
}

TEST(PriorityMix, Interleaved)
{
    // Proportional interleave: any window of 32 racks should contain
    // every priority when the classes are this balanced.
    auto mix = makePriorityMix(89, 142, 85);
    for (size_t start = 0; start + 32 <= mix.size(); start += 32) {
        std::array<int, 3> counts{0, 0, 0};
        for (size_t i = start; i < start + 32; ++i)
            ++counts[static_cast<size_t>(priorityIndex(mix[i]))];
        EXPECT_GT(counts[0], 0) << start;
        EXPECT_GT(counts[1], 0) << start;
        EXPECT_GT(counts[2], 0) << start;
    }
}

TEST(Topology, BuildsExpectedShape)
{
    Topology topo = Topology::build(smallMsbSpec(),
                                    battery::makeVariableCharger());
    EXPECT_EQ(topo.root().kind(), NodeKind::Msb);
    EXPECT_EQ(topo.racks().size(), 16u);
    EXPECT_EQ(topo.nodesOfKind(NodeKind::Sb).size(), 2u);
    EXPECT_EQ(topo.nodesOfKind(NodeKind::Rpp).size(), 4u);
    EXPECT_EQ(topo.nodesOfKind(NodeKind::RackNode).size(), 16u);
    EXPECT_EQ(topo.root().racksBelow().size(), 16u);
}

TEST(Topology, TotalRacksTruncates)
{
    TopologySpec spec = smallMsbSpec();
    spec.totalRacks = 13;
    Topology topo = Topology::build(spec,
                                    battery::makeVariableCharger());
    EXPECT_EQ(topo.racks().size(), 13u);
}

/** A subtree's racks by recursion over the children: the reference. */
void
racksByWalk(const PowerNode &node, std::vector<const Rack *> &out)
{
    if (node.rack())
        out.push_back(node.rack());
    for (const PowerNode *child : node.children())
        racksByWalk(*child, out);
}

TEST(Topology, RowRangesMatchRecursiveWalk)
{
    // Every node's row range must hold exactly the racks a recursive
    // walk finds under it, in the same order, as a view of the
    // topology's rack list; subtrees that totalRacks leaves without
    // racks get an empty range.
    TopologySpec site;
    site.rootKind = NodeKind::Site;
    site.buildingsPerSite = 2;
    site.suitesPerBuilding = 2;
    site.msbsPerSuite = 2;
    site.sbsPerMsb = 2;
    site.rppsPerSb = 3;
    site.racksPerRpp = 5;
    site.totalRacks = 97;
    std::vector<TopologySpec> specs{smallMsbSpec(), site};
    for (int total : {1, 4, 5, 8, 13, 16}) {
        specs.push_back(smallMsbSpec());
        specs.back().totalRacks = total;
    }
    for (const TopologySpec &spec : specs) {
        Topology topo = Topology::build(spec,
                                        battery::makeVariableCharger());
        int empty = 0;
        for (NodeKind kind :
             {NodeKind::Site, NodeKind::Building, NodeKind::Suite,
              NodeKind::Msb, NodeKind::Sb, NodeKind::Rpp,
              NodeKind::RackNode}) {
            for (const PowerNode *node : topo.nodesOfKind(kind)) {
                std::vector<const Rack *> want;
                racksByWalk(*node, want);
                std::span<Rack *const> got = node->racksBelow();
                ASSERT_EQ(got.size(), want.size()) << node->name();
                ASSERT_EQ(node->rowEnd() - node->rowBegin(), got.size())
                    << node->name();
                for (size_t k = 0; k < got.size(); ++k) {
                    EXPECT_EQ(got[k], want[k]) << node->name();
                    EXPECT_EQ(static_cast<size_t>(got[k]->id()),
                              node->rowBegin() + k)
                        << node->name();
                }
                if (!got.empty()) {
                    EXPECT_EQ(got.data(),
                              &topo.racks()[node->rowBegin()]);
                }
                empty += got.empty() ? 1 : 0;
            }
        }
        EXPECT_EQ(topo.root().rowBegin(), 0u);
        EXPECT_EQ(topo.root().rowEnd(), topo.racks().size());
        if (spec.totalRacks == 8) {
            // The second SB and its two RPPs hold no rack.
            EXPECT_EQ(empty, 3);
        }
    }
}

TEST(Topology, BreakersAtRightLevels)
{
    Topology topo = Topology::build(smallMsbSpec(),
                                    battery::makeVariableCharger());
    EXPECT_NE(topo.root().breaker(), nullptr);
    EXPECT_DOUBLE_EQ(topo.root().breaker()->limit().value(), 2.5e6);
    for (PowerNode *sb : topo.nodesOfKind(NodeKind::Sb)) {
        ASSERT_NE(sb->breaker(), nullptr);
        EXPECT_DOUBLE_EQ(sb->breaker()->limit().value(), 1.25e6);
    }
    for (PowerNode *rpp : topo.nodesOfKind(NodeKind::Rpp)) {
        ASSERT_NE(rpp->breaker(), nullptr);
        EXPECT_DOUBLE_EQ(rpp->breaker()->limit().value(), 190e3);
    }
    for (PowerNode *leaf : topo.nodesOfKind(NodeKind::RackNode))
        EXPECT_EQ(leaf->breaker(), nullptr);
}

TEST(Topology, PrioritiesCycled)
{
    TopologySpec spec = smallMsbSpec();
    spec.priorities = {Priority::P1, Priority::P2, Priority::P3};
    Topology topo = Topology::build(spec,
                                    battery::makeVariableCharger());
    EXPECT_EQ(topo.rack(0).priority(), Priority::P1);
    EXPECT_EQ(topo.rack(1).priority(), Priority::P2);
    EXPECT_EQ(topo.rack(2).priority(), Priority::P3);
    EXPECT_EQ(topo.rack(3).priority(), Priority::P1);
}

TEST(Topology, PowerAggregatesLeafToRoot)
{
    Topology topo = Topology::build(smallMsbSpec(),
                                    battery::makeVariableCharger());
    for (Rack *rack : topo.racks())
        rack->setItDemand(kilowatts(5.0));
    EXPECT_DOUBLE_EQ(topo.root().inputPower().value(), 16 * 5000.0);
    PowerNode *sb = topo.nodesOfKind(NodeKind::Sb)[0];
    EXPECT_DOUBLE_EQ(sb->inputPower().value(), 8 * 5000.0);
    PowerNode *rpp = topo.nodesOfKind(NodeKind::Rpp)[0];
    EXPECT_DOUBLE_EQ(rpp->inputPower().value(), 4 * 5000.0);
}

TEST(Topology, SiteScaleBuild)
{
    TopologySpec spec;
    spec.rootKind = NodeKind::Site;
    spec.buildingsPerSite = 2;
    spec.suitesPerBuilding = 1;
    spec.msbsPerSuite = 1;
    spec.sbsPerMsb = 1;
    spec.rppsPerSb = 1;
    spec.racksPerRpp = 2;
    Topology topo = Topology::build(spec,
                                    battery::makeVariableCharger());
    EXPECT_EQ(topo.root().kind(), NodeKind::Site);
    EXPECT_EQ(topo.nodesOfKind(NodeKind::Building).size(), 2u);
    EXPECT_EQ(topo.racks().size(), 4u);
}

TEST(Topology, RppRootBuild)
{
    TopologySpec spec;
    spec.rootKind = NodeKind::Rpp;
    spec.rootName = "row7";
    spec.racksPerRpp = 14;
    Topology topo = Topology::build(spec,
                                    battery::makeVariableCharger());
    EXPECT_EQ(topo.root().kind(), NodeKind::Rpp);
    EXPECT_EQ(topo.racks().size(), 14u);
    EXPECT_EQ(topo.rack(0).name(), "row7.rack00");
}

TEST(Topology, OpenTransitionAffectsOnlySubtree)
{
    Topology topo = Topology::build(smallMsbSpec(),
                                    battery::makeVariableCharger());
    PowerNode *rpp = topo.nodesOfKind(NodeKind::Rpp)[0];
    Topology::startOpenTransition(*rpp);
    int off = 0;
    for (Rack *rack : topo.racks())
        off += rack->inputPowerOn() ? 0 : 1;
    EXPECT_EQ(off, 4);
    Topology::endOpenTransition(*rpp);
    for (Rack *rack : topo.racks())
        EXPECT_TRUE(rack->inputPowerOn());
}

TEST(Topology, ScheduledOpenTransition)
{
    Topology topo = Topology::build(smallMsbSpec(),
                                    battery::makeVariableCharger());
    for (Rack *rack : topo.racks())
        rack->setItDemand(kilowatts(6.0));
    sim::EventQueue queue;
    topo.scheduleOpenTransition(queue, topo.root(),
                                sim::toTicks(Seconds(10.0)),
                                sim::toTicks(Seconds(45.0)));
    queue.runUntil(sim::toTicks(Seconds(9.0)));
    EXPECT_TRUE(topo.rack(0).inputPowerOn());
    queue.runUntil(sim::toTicks(Seconds(11.0)));
    EXPECT_FALSE(topo.rack(0).inputPowerOn());
    queue.runUntil(sim::toTicks(Seconds(56.0)));
    EXPECT_TRUE(topo.rack(0).inputPowerOn());
}

TEST(Topology, StepRacksAdvancesPhysics)
{
    Topology topo = Topology::build(smallMsbSpec(),
                                    battery::makeVariableCharger());
    for (Rack *rack : topo.racks())
        rack->setItDemand(kilowatts(6.0));
    Topology::startOpenTransition(topo.root());
    topo.stepRacks(Seconds(30.0));
    for (Rack *rack : topo.racks())
        EXPECT_GT(rack->shelf().meanDod(), 0.0);
}

TEST(Topology, ObserveBreakersTripsOverloadedRpp)
{
    TopologySpec spec = smallMsbSpec();
    spec.rppLimit = kilowatts(10.0);  // absurdly low to force a trip
    Topology topo = Topology::build(spec,
                                    battery::makeVariableCharger());
    for (Rack *rack : topo.racks())
        rack->setItDemand(kilowatts(6.0));
    for (int s = 0; s < 60; ++s)
        topo.observeBreakers(Seconds(1.0));
    EXPECT_TRUE(
        topo.nodesOfKind(NodeKind::Rpp)[0]->breaker()->tripped());
}

TEST(TopologyDeathTest, RackRootRejected)
{
    TopologySpec spec;
    spec.rootKind = NodeKind::RackNode;
    EXPECT_EXIT(Topology::build(spec, battery::makeVariableCharger()),
                testing::ExitedWithCode(1), "cannot root");
}

TEST(NodeKindNames, AllDistinct)
{
    EXPECT_STREQ(toString(NodeKind::Site), "site");
    EXPECT_STREQ(toString(NodeKind::Msb), "msb");
    EXPECT_STREQ(toString(NodeKind::Sb), "sb");
    EXPECT_STREQ(toString(NodeKind::Rpp), "rpp");
    EXPECT_STREQ(toString(NodeKind::RackNode), "rack");
}

} // namespace
} // namespace dcbatt::power

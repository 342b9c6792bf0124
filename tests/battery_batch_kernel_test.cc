/**
 * @file
 * Bit-parity contract of the resident charge lanes
 * (battery/charge_lanes.h, battery/batch_charge_kernel.h):
 *
 *  1. a rack stepped as a resident lane must leave its packs in
 *     exactly the state BbuModel::step() would have produced
 *     (every double bit-equal), across CC, CV, and the boundary steps
 *     that evict the lane to the object path;
 *  2. the AVX2 lanes must be bit-identical to the scalar lanes;
 *  3. a Topology stepped with batching on and off must produce
 *     byte-identical fleet rows, totals, tree nodes and packs, and as
 *     many quiescent and charging steps per shelf, through every
 *     mutation that evicts a lane.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "battery/bbu.h"
#include "obs/metrics.h"
#include "power/topology.h"
#include "util/random.h"

namespace dcbatt::battery {
namespace {

using util::Amperes;
using util::Seconds;
using util::Watts;

/** a and b must agree on every dynamic field, bit for bit. */
void
expectBitEqual(const BbuModel &a, const BbuModel &b, int where)
{
    BbuModel::ChargeState sa = a.chargeState();
    BbuModel::ChargeState sb = b.chargeState();
    ASSERT_EQ(sa.state, sb.state) << "step " << where;
    ASSERT_EQ(std::bit_cast<uint64_t>(sa.dod),
              std::bit_cast<uint64_t>(sb.dod))
        << "step " << where;
    ASSERT_EQ(std::bit_cast<uint64_t>(sa.cvElapsedS),
              std::bit_cast<uint64_t>(sb.cvElapsedS))
        << "step " << where;
    ASSERT_EQ(sa.inCv, sb.inCv) << "step " << where;
    ASSERT_EQ(
        std::bit_cast<uint64_t>(a.chargingCurrent().value()),
        std::bit_cast<uint64_t>(b.chargingCurrent().value()))
        << "step " << where;
    ASSERT_EQ(std::bit_cast<uint64_t>(a.inputPower().value()),
              std::bit_cast<uint64_t>(b.inputPower().value()))
        << "step " << where;
}

/** A topology whose rack r charges from @p dods[r] at @p sp. */
power::Topology
chargingRacks(const std::vector<double> &dods, double sp)
{
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Rpp;
    spec.rootName = "rpp0";
    spec.racksPerRpp = static_cast<int>(dods.size());
    power::Topology topo =
        power::Topology::build(spec, makeVariableCharger());
    for (size_t r = 0; r < dods.size(); ++r) {
        PowerShelf &shelf = topo.rack(static_cast<int>(r)).shelf();
        topo.rack(static_cast<int>(r)).setItDemand(util::kilowatts(8.0));
        shelf.loseInputPower();
        shelf.forceUniformDod(dods[r]);
        shelf.setOverride(Amperes(sp));
        shelf.restoreInputPower();
    }
    return topo;
}

/** A one-rack topology whose shelf charges from @p dod at @p sp. */
power::Topology
chargingRack(double dod, double sp)
{
    return chargingRacks({dod}, sp);
}

uint64_t
lanesCounted()
{
    return obs::counter("battery.batch_lanes").value();
}

TEST(BatchLane, ResidentLaneMatchesScalarStepBitExact)
{
    BbuParams params;
    int cc_lanes = 0;
    int cv_lanes = 0;
    int object_steps = 0;
    for (double dod : {0.95, 0.6, 0.3, 0.15}) {
        for (double sp : {1.0, 2.5, 5.0}) {
            for (double dt : {1.0, 4.0, 37.5}) {
                power::Topology topo = chargingRack(dod, sp);
                const PowerShelf &shelf = topo.rack(0).shelf();
                BbuModel scalar(params);
                scalar.forceDod(dod);
                scalar.startCharging(Amperes(sp));
                for (int i = 0; i < 100000 && scalar.charging(); ++i) {
                    const bool cv = scalar.inCvPhase();
                    const uint64_t before = lanesCounted();
                    scalar.step(Seconds(dt));
                    topo.stepRacks(Seconds(dt), true);
                    if (lanesCounted() == before)
                        ++object_steps;
                    else
                        cv ? ++cv_lanes : ++cc_lanes;
                    expectBitEqual(scalar, shelf.bbu(0), i);
                }
                EXPECT_TRUE(scalar.fullyCharged());
                EXPECT_TRUE(shelf.fullyCharged());
            }
        }
    }
    // Every path must actually have been exercised.
    EXPECT_GT(cc_lanes, 100);
    EXPECT_GT(cv_lanes, 100);
    EXPECT_GT(object_steps, 10);

    // Fleets of 2-9 and 301 racks at staggered DODs: as racks cross
    // into CV and finish, the CC and CV lane sets pass through every
    // count below the fleet size, so both lane widths and their tails
    // meet BbuModel::step() rack by rack.
    for (int racks : {2, 3, 4, 5, 6, 7, 8, 9, 301}) {
        for (double dt : {4.0, 37.5}) {
            std::vector<double> dods;
            for (int r = 0; r < racks; ++r)
                dods.push_back(0.95 - 0.8 * r / racks);
            power::Topology topo = chargingRacks(dods, 2.5);
            const uint64_t lanes_before = lanesCounted();
            std::vector<BbuModel> scalar(dods.size(), BbuModel(params));
            for (size_t r = 0; r < dods.size(); ++r) {
                scalar[r].forceDod(dods[r]);
                scalar[r].startCharging(Amperes(2.5));
            }
            bool charging = true;
            for (int i = 0; i < 100000 && charging; ++i) {
                charging = false;
                for (BbuModel &model : scalar) {
                    if (model.charging()) {
                        model.step(Seconds(dt));
                        charging = true;
                    }
                }
                topo.stepRacks(Seconds(dt), true);
                for (size_t r = 0; r < scalar.size(); ++r) {
                    const int rack = static_cast<int>(r);
                    ASSERT_NO_FATAL_FAILURE(expectBitEqual(
                        scalar[r], topo.rack(rack).shelf().bbu(0), i))
                        << racks << " racks, rack " << r << ", dt " << dt;
                }
            }
            for (int r = 0; r < racks; ++r)
                EXPECT_TRUE(topo.rack(r).shelf().fullyCharged());
            EXPECT_GT(lanesCounted() - lanes_before,
                      10 * static_cast<uint64_t>(racks))
                << racks << " racks, dt " << dt;
        }
    }
}

TEST(BatchLane, IneligibleConfigurationsStayOnObjectPath)
{
    // Each topology's next step must run through PowerShelf::step().
    auto expect_no_lane = [](power::Topology &topo, double dt,
                             const char *what) {
        const uint64_t before = lanesCounted();
        topo.stepRacks(Seconds(dt), true);
        EXPECT_EQ(lanesCounted(), before) << what;
    };

    power::Topology idle = chargingRack(0.0, 5.0);
    expect_no_lane(idle, 4.0, "fully charged");

    // Restoring power starts every pack alike: the first step is
    // already a lane.
    auto expect_lane = [](power::Topology &topo, double dt,
                          const char *what) {
        const uint64_t before = lanesCounted();
        topo.stepRacks(Seconds(dt), true);
        EXPECT_EQ(lanesCounted(), before + 1) << what;
        EXPECT_TRUE(topo.chargeLanes().resident(0)) << what;
    };
    power::Topology fresh = chargingRack(0.8, 5.0);
    expect_lane(fresh, 4.0, "first step after restore");

    power::Topology held = chargingRack(0.8, 5.0);
    held.stepRacks(Seconds(4.0), true);
    held.rack(0).shelf().holdCharging();
    expect_no_lane(held, 4.0, "held");

    // A step that crosses the CC->CV handover must not run as a lane.
    power::Topology near_handover = chargingRack(0.8, 5.0);
    near_handover.stepRacks(Seconds(4.0), true);
    expect_no_lane(near_handover, 1e5, "handover inside dt");

    // Packs whose states differ step one by one.
    power::Topology split = chargingRack(0.8, 5.0);
    split.stepRacks(Seconds(4.0), true);
    split.rack(0).shelf().bbu(3).setSetpoint(Amperes(2.0));
    expect_no_lane(split, 4.0, "packs not in lockstep");
    expect_no_lane(split, 4.0, "packs still not in lockstep");

    // An override re-joins a split shelf before its packs drift apart:
    // the next interior step is a lane again.
    power::Topology rejoined = chargingRack(0.8, 5.0);
    rejoined.stepRacks(Seconds(4.0), true);
    rejoined.rack(0).shelf().bbu(3).setSetpoint(Amperes(2.0));
    rejoined.rack(0).shelf().setOverride(Amperes(3.0));
    expect_lane(rejoined, 4.0, "re-joined by an override");
}

TEST(BatchLane, ConstPackReadLeavesLaneResident)
{
    // A const bbu() read writes the lane into every healthy pack and
    // leaves it resident; the packs then equal a walked shelf's.
    power::Topology lanes = chargingRack(0.8, 2.5);
    power::Topology walk = chargingRack(0.8, 2.5);
    lanes.rack(0).shelf().failBbu(1);
    walk.rack(0).shelf().failBbu(1);
    for (int step = 0; step < 5; ++step) {
        lanes.stepRacks(Seconds(4.0), true);
        walk.stepRacks(Seconds(4.0), false);
    }
    ASSERT_TRUE(lanes.chargeLanes().resident(0));
    const PowerShelf &sa = lanes.rack(0).shelf();
    const PowerShelf &sb = walk.rack(0).shelf();
    const uint64_t before = lanes.chargeLanes().materializations();
    for (int i = 0; i < sa.bbuCount(); ++i) {
        if (!sa.bbuHealthy(i))
            continue;
        expectBitEqual(sb.bbu(i), sa.bbu(i), i);
        EXPECT_TRUE(lanes.chargeLanes().resident(0)) << "pack " << i;
    }
    // One write-back served every pack read.
    EXPECT_EQ(lanes.chargeLanes().materializations(), before + 1);
    EXPECT_EQ(sa.stepStats().lockstepSteps, 5u);
    EXPECT_EQ(sb.stepStats().fullSteps, 5u);
}

TEST(BatchKernel, Avx2LanesMatchScalarBitExact)
{
    if (!util::cpuHasAvx2())
        GTEST_SKIP() << "CPU has no AVX2";
    BbuParams params;
    BatchChargeKernel kernel(params);
    util::Rng rng(0x5eed);
    // Every lane count mod 4 and then some: the lanes past the last
    // multiple of four take the one-lane tail inside the AVX2 mode,
    // which must splice seamlessly.
    for (int lanes : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 301, 1003}) {
        ChargeLaneColumns scalar_lanes;
        for (int i = 0; i < lanes; ++i) {
            scalar_lanes.ccDod.push_back(rng.uniform(0.25, 1.0));
            scalar_lanes.ccSetpointA.push_back(rng.uniform(1.0, 5.0));
            scalar_lanes.ccInputW.push_back(0.0);
            scalar_lanes.cvDod.push_back(rng.uniform(0.0, 0.2));
            scalar_lanes.cvCurrentA.push_back(rng.uniform(0.4, 5.0));
            scalar_lanes.cvSetpointA.push_back(rng.uniform(1.0, 5.0));
            scalar_lanes.cvElapsedS.push_back(rng.uniform(0.0, 900.0));
            scalar_lanes.cvInputW.push_back(0.0);
            scalar_lanes.cvTotalS.push_back(1e9);
        }
        ChargeLaneColumns avx_lanes = scalar_lanes;
        auto same = [](const std::vector<double> &a,
                       const std::vector<double> &b, const char *column) {
            for (size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(std::bit_cast<uint64_t>(a[i]),
                          std::bit_cast<uint64_t>(b[i]))
                    << column << " lane " << i;
            }
        };
        // Several steps in place: each one starts from the last's output.
        for (double dt : {1.0, 4.0, 37.5}) {
            kernel.advanceWithMode(scalar_lanes, dt, SimdMode::Scalar);
            kernel.advanceWithMode(avx_lanes, dt, SimdMode::Avx2);
            same(scalar_lanes.ccDod, avx_lanes.ccDod, "ccDod");
            same(scalar_lanes.ccInputW, avx_lanes.ccInputW, "ccInputW");
            same(scalar_lanes.cvDod, avx_lanes.cvDod, "cvDod");
            same(scalar_lanes.cvElapsedS, avx_lanes.cvElapsedS,
                 "cvElapsedS");
            same(scalar_lanes.cvCurrentA, avx_lanes.cvCurrentA,
                 "cvCurrentA");
            same(scalar_lanes.cvInputW, avx_lanes.cvInputW, "cvInputW");
        }
    }
}

/**
 * End-to-end differential: a topology recharging after an outage must
 * produce byte-identical fleet rows whether or not stepRacks() batches
 * the lockstep lanes (@p batching false forces the per-rack walk, as
 * DCBATT_BATCH=off does for a whole process).
 */
std::vector<uint64_t>
runRechargeSeries(bool batching)
{
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Rpp;
    spec.rootName = "rpp0";
    spec.racksPerRpp = 9;
    power::Topology topo =
        power::Topology::build(spec, makeVariableCharger());
    const size_t racks = topo.racks().size();
    for (power::Rack *rack : topo.racks())
        rack->setItDemand(util::kilowatts(8.0));
    power::Topology::startOpenTransition(topo.root());
    // Per-rack DODs so the staged lanes differ (and complete at
    // different steps, exercising the scalar boundary fallbacks).
    for (size_t r = 0; r < racks; ++r) {
        topo.racks()[r]->shelf().forceUniformDod(
            0.1 + 0.8 * static_cast<double>(r)
                / static_cast<double>(racks - 1));
    }
    power::Topology::endOpenTransition(topo.root());
    std::vector<uint64_t> series;
    for (int step = 0; step < 1200; ++step) {
        topo.stepRacks(Seconds(4.0), batching);
        const FleetState &fleet = topo.fleet();
        double recharge_sum = 0.0;
        for (size_t r = 0; r < racks; ++r)
            recharge_sum += fleet.rechargeW[r];
        series.push_back(std::bit_cast<uint64_t>(recharge_sum));
        series.push_back(std::bit_cast<uint64_t>(fleet.rechargeW[0]));
        series.push_back(
            std::bit_cast<uint64_t>(fleet.rechargeW[racks - 1]));
        series.push_back(
            static_cast<uint64_t>(fleet.chargingBbus[0]));
        series.push_back(static_cast<uint64_t>(fleet.cvBbus[0]));
        series.push_back(
            static_cast<uint64_t>(fleet.fullyCharged[racks - 1]));
    }
    return series;
}

TEST(TopologyBatch, FleetRowsMatchScalarWalkByteExact)
{
    obs::Counter &lanes = obs::counter("battery.batch_lanes");
    std::vector<uint64_t> scalar_series = runRechargeSeries(false);
    uint64_t lanes_before = lanes.value();
    std::vector<uint64_t> batched_series = runRechargeSeries(true);
    // The batched run must actually have run lanes (the comparison
    // would pass vacuously if everything fell back to the walk).
    EXPECT_GT(lanes.value(), lanes_before + 1000);
    ASSERT_EQ(scalar_series.size(), batched_series.size());
    for (size_t i = 0; i < scalar_series.size(); ++i)
        ASSERT_EQ(scalar_series[i], batched_series[i]) << i;
}

// ---------------------------------------------------------------------
// Lane residency. One topology steps with resident charge lanes, a
// second through the object walk (batching off), both through a
// charging event that evicts lanes every way the contract names: caps
// and uncaps (which must not evict), Dynamo-style set-current
// overrides and their release, holds and resumes, a pack failure and
// its repair, a mutable per-pack read and a second open transition
// mid-charge. After every step the two must agree bit for bit on
// every fleet column, the step totals, every tree node and each
// shelf's first pack, and on each shelf's quiescent and charging
// step counts.
// ---------------------------------------------------------------------

/**
 * @p lanes and @p walk took their quiescent steps alike, and as many
 * charging steps: a lane step on one side is a per-pack step on the
 * other.
 */
void
expectSameChargingSteps(const PowerShelf &lanes, const PowerShelf &walk,
                        size_t rack)
{
    const PowerShelf::StepStats a = lanes.stepStats();
    const PowerShelf::StepStats b = walk.stepStats();
    ASSERT_EQ(a.quiescentSteps, b.quiescentSteps) << "rack " << rack;
    ASSERT_EQ(a.lockstepSteps + a.fullSteps, b.lockstepSteps + b.fullSteps)
        << "rack " << rack;
}

template <typename T>
bool
sameColumn(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size()
        && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void
expectResidencyExact(power::Topology &lanes, power::Topology &walk,
                     int step)
{
    const FleetState &a = lanes.fleet();
    const FleetState &b = walk.fleet();
    ASSERT_TRUE(sameColumn(a.itDemandW, b.itDemandW)) << "step " << step;
    ASSERT_TRUE(sameColumn(a.capW, b.capW)) << "step " << step;
    ASSERT_TRUE(sameColumn(a.powerTouched, b.powerTouched))
        << "step " << step;
    ASSERT_TRUE(sameColumn(a.itLoadW, b.itLoadW)) << "step " << step;
    ASSERT_TRUE(sameColumn(a.rechargeW, b.rechargeW)) << "step " << step;
    ASSERT_TRUE(sameColumn(a.inputOn, b.inputOn)) << "step " << step;
    ASSERT_TRUE(sameColumn(a.held, b.held)) << "step " << step;
    ASSERT_TRUE(sameColumn(a.fullyCharged, b.fullyCharged))
        << "step " << step;
    ASSERT_TRUE(sameColumn(a.chargingBbus, b.chargingBbus))
        << "step " << step;
    ASSERT_TRUE(sameColumn(a.cvBbus, b.cvBbus)) << "step " << step;
    ASSERT_EQ(lanes.refreshedRows(), walk.refreshedRows())
        << "step " << step;
    const power::Topology::StepPowerTotals &ta = lanes.stepPowerTotals();
    const power::Topology::StepPowerTotals &tb = walk.stepPowerTotals();
    ASSERT_TRUE(sameBits(ta.itW, tb.itW)) << "step " << step;
    ASSERT_TRUE(sameBits(ta.rechargeW, tb.rechargeW)) << "step " << step;
    ASSERT_TRUE(sameBits(ta.capW, tb.capW)) << "step " << step;
    for (power::NodeKind kind :
         {power::NodeKind::Msb, power::NodeKind::Sb, power::NodeKind::Rpp,
          power::NodeKind::RackNode}) {
        std::vector<power::PowerNode *> na = lanes.nodesOfKind(kind);
        std::vector<power::PowerNode *> nb = walk.nodesOfKind(kind);
        ASSERT_EQ(na.size(), nb.size());
        for (size_t k = 0; k < na.size(); ++k) {
            ASSERT_TRUE(sameBits(na[k]->inputPower().value(),
                                 nb[k]->inputPower().value()))
                << na[k]->name() << " step " << step;
        }
    }
    for (size_t i = 0; i < lanes.racks().size(); ++i) {
        const PowerShelf &sa = lanes.racks()[i]->shelf();
        const PowerShelf &sb = walk.racks()[i]->shelf();
        const BbuModel &pa = sa.bbu(0);
        const BbuModel &pb = sb.bbu(0);
        ASSERT_TRUE(pa.matches(pb.chargeState()))
            << "rack " << i << " step " << step;
        ASSERT_TRUE(sameBits(pa.chargingCurrent().value(),
                             pb.chargingCurrent().value()))
            << "rack " << i << " step " << step;
        ASSERT_TRUE(sameBits(pa.inputPower().value(),
                             pb.inputPower().value()))
            << "rack " << i << " step " << step;
        expectSameChargingSteps(sa, sb, i);
    }
}

TEST(TopologyBatch, ResidentLanesMatchObjectWalkBitExact)
{
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 6;
    power::Topology lanes =
        power::Topology::build(spec, makeVariableCharger());
    power::Topology walk =
        power::Topology::build(spec, makeVariableCharger());
    const int n = static_cast<int>(lanes.racks().size());
    std::vector<power::PowerNode *> rpps =
        lanes.nodesOfKind(power::NodeKind::Rpp);
    std::vector<power::PowerNode *> walk_rpps =
        walk.nodesOfKind(power::NodeKind::Rpp);
    auto both = [&](int id, auto &&mutate) {
        mutate(lanes.rack(id));
        mutate(walk.rack(id));
    };
    util::Rng rng(1910);
    std::vector<double> row(static_cast<size_t>(n));
    for (double &w : row)
        w = rng.uniform(4000.0, 11000.0);
    lanes.applyDemandRow(row.data());
    walk.applyDemandRow(row.data());

    int step = 0;
    uint64_t lane_steps = 0;
    auto step_both = [&](double dt) {
        walk.stepRacks(Seconds(dt), false);
        walk.observeBreakers(Seconds(dt));
        const uint64_t before = lanesCounted();
        lanes.stepRacks(Seconds(dt), true);
        lanes.observeBreakers(Seconds(dt));
        lane_steps += lanesCounted() - before;
        expectResidencyExact(lanes, walk, step);
        ++step;
    };

    // Discharge the whole MSB for a while; unequal demands leave
    // unequal DODs, so the lanes sit at different points of CC and CV.
    power::Topology::startOpenTransition(lanes.root());
    power::Topology::startOpenTransition(walk.root());
    for (int k = 0; k < 120; ++k)
        step_both(1.0);
    power::Topology::endOpenTransition(lanes.root());
    power::Topology::endOpenTransition(walk.root());

    int overrides = 0;
    int holds = 0;
    for (int m = 0; m < 20000; ++m) {
        const auto id = static_cast<int>(rng.uniform(0.0, 1.0) * n);
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.03) {
            Watts cap(rng.uniform(0.0, 3000.0));
            both(id, [cap](power::Rack &r) { r.setCapAmount(cap); });
        } else if (roll < 0.05) {
            both(id, [](power::Rack &r) { r.uncap(); });
        } else if (roll < 0.07) {
            Amperes current(rng.uniform(1.0, 5.0));
            both(id, [current](power::Rack &r) {
                r.shelf().setOverride(current);
            });
            ++overrides;
        } else if (roll < 0.08) {
            both(id, [](power::Rack &r) { r.shelf().clearOverride(); });
        } else if (roll < 0.085 && m < 4000) {
            both(id, [](power::Rack &r) { r.shelf().holdCharging(); });
            ++holds;
        } else if (roll < 0.095) {
            both(id, [](power::Rack &r) { r.shelf().resumeCharging(); });
        } else if (roll < 0.1) {
            // The invariant auditor's per-pack read.
            (void)lanes.rack(id).shelf().bbu(4).dod();
            (void)walk.rack(id).shelf().bbu(4).dod();
        } else if (roll < 0.12) {
            Watts demand(rng.uniform(4000.0, 11000.0));
            both(id, [demand](power::Rack &r) { r.setItDemand(demand); });
        }
        if (m % 3 == 0) {
            row[static_cast<size_t>(id)] = rng.uniform(4000.0, 11000.0);
            lanes.applyDemandRow(row.data());
            walk.applyDemandRow(row.data());
        }
        if (m == 300)
            both(5, [](power::Rack &r) { r.shelf().failBbu(2); });
        if (m == 900)
            both(5, [](power::Rack &r) { r.shelf().repairBbu(2); });
        if (m == 600) {
            power::Topology::startOpenTransition(*rpps[1]);
            power::Topology::startOpenTransition(*walk_rpps[1]);
        }
        if (m == 640) {
            power::Topology::endOpenTransition(*rpps[1]);
            power::Topology::endOpenTransition(*walk_rpps[1]);
        }
        step_both(m % 50 == 49 ? 7.5 : 1.0);
        if (HasFatalFailure())
            return;
        const bool charging = std::any_of(
            lanes.racks().begin(), lanes.racks().end(),
            [](const power::Rack *r) { return r->shelf().anyCharging(); });
        if (m > 1000 && !charging)
            break;
        // Release every hold late on, so the event completes.
        if (m == 5000) {
            for (int i = 0; i < n; ++i)
                both(i, [](power::Rack &r) { r.shelf().resumeCharging(); });
        }
    }
    // The walk must have exercised what it claims to: lanes resident
    // over many steps, and every kind of eviction.
    EXPECT_GT(lane_steps, 20000u);
    EXPECT_GT(overrides, 50);
    EXPECT_GT(holds, 10);
    for (const power::Rack *r : lanes.racks())
        EXPECT_TRUE(r->shelf().fullyCharged()) << r->name();
}

/**
 * Racks in groups of equal DOD reach each CC->CV handover and each
 * completion in the same step, so one beginStep() evicts several lanes
 * at once, the set's last lane among them: every lane must still be
 * gated and stepped exactly as the object walk steps it.
 */
TEST(TopologyBatch, SimultaneousEvictionsMatchObjectWalkBitExact)
{
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 6;
    power::Topology lanes =
        power::Topology::build(spec, makeVariableCharger());
    power::Topology walk =
        power::Topology::build(spec, makeVariableCharger());
    const size_t n = lanes.racks().size();
    for (power::Topology *topo : {&lanes, &walk}) {
        for (power::Rack *rack : topo->racks())
            rack->setItDemand(util::kilowatts(7.0));
        power::Topology::startOpenTransition(topo->root());
        for (size_t r = 0; r < n; ++r) {
            topo->racks()[r]->shelf().forceUniformDod(
                r % 3 == 0 ? 0.3 : (r % 3 == 1 ? 0.6 : 0.9));
        }
        power::Topology::endOpenTransition(topo->root());
    }
    uint64_t lane_steps = 0;
    for (int step = 0; step < 4000 && !lanes.quiet(); ++step) {
        const uint64_t before = lanesCounted();
        lanes.stepRacks(Seconds(5.0), true);
        lane_steps += lanesCounted() - before;
        walk.stepRacks(Seconds(5.0), false);
        lanes.observeBreakers(Seconds(5.0));
        walk.observeBreakers(Seconds(5.0));
        expectResidencyExact(lanes, walk, step);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(lane_steps, 5000u);
    for (const power::Rack *r : lanes.racks())
        EXPECT_TRUE(r->shelf().fullyCharged()) << r->name();
}

// ---------------------------------------------------------------------
// Lane ownership. While a lane is resident its shelf and pack are not
// written; the shelf answers meanDod(), maxDod(), rechargePower() and
// stepStats() from the lane, and a const bbu() read materializes the
// packs. Read at random steps, each must be bit-equal to the object
// walk's, with the aggregate reads materializing nothing and no read
// evicting the lane — except a mutable bbu() access, after which the
// shelf's own re-folded aggregates must agree too.
// ---------------------------------------------------------------------

TEST(TopologyBatch, LanesOwnStateAndAnswerShelfReadsBitExact)
{
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 6;
    power::Topology lanes =
        power::Topology::build(spec, makeVariableCharger());
    power::Topology walk =
        power::Topology::build(spec, makeVariableCharger());
    const size_t n = lanes.racks().size();
    util::Rng rng(2203);
    std::vector<double> row(n);
    for (double &w : row)
        w = rng.uniform(4000.0, 11000.0);
    for (power::Topology *topo : {&lanes, &walk}) {
        topo->applyDemandRow(row.data());
        power::Topology::startOpenTransition(topo->root());
        // Unequal DODs: the lanes sit at different points of CC and CV
        // and leave the table at different steps.
        for (size_t r = 0; r < n; ++r) {
            topo->racks()[r]->shelf().forceUniformDod(
                0.05 + 0.9 * static_cast<double>(r)
                    / static_cast<double>(n - 1));
        }
        power::Topology::endOpenTransition(topo->root());
    }
    const ChargeLanes &table = lanes.chargeLanes();
    int resident_reads = 0;
    int cv_reads = 0;
    int evicting_reads = 0;
    for (int step = 0; step < 2500; ++step) {
        const double dt = step % 40 == 39 ? 6.5 : 3.0;
        lanes.stepRacks(Seconds(dt), true);
        walk.stepRacks(Seconds(dt), false);
        if (rng.uniform(0.0, 1.0) >= 0.15)
            continue;
        for (size_t i = 0; i < n; ++i) {
            const power::Rack &ra = *lanes.racks()[i];
            const power::Rack &rb = *walk.racks()[i];
            const PowerShelf &sa = ra.shelf();
            const PowerShelf &sb = rb.shelf();
            auto same_reads = [&] {
                ASSERT_TRUE(sameBits(sa.meanDod(), sb.meanDod()))
                    << "rack " << i << " step " << step;
                ASSERT_TRUE(sameBits(sa.maxDod(), sb.maxDod()))
                    << "rack " << i << " step " << step;
                ASSERT_TRUE(sameBits(sa.rechargePower().value(),
                                     sb.rechargePower().value()))
                    << "rack " << i << " step " << step;
                ASSERT_TRUE(sameBits(ra.inputPower().value(),
                                     rb.inputPower().value()))
                    << "rack " << i << " step " << step;
                expectSameChargingSteps(sa, sb, i);
            };
            const bool resident = table.resident(i);
            const uint64_t before = table.materializations();
            same_reads();
            ASSERT_EQ(table.materializations(), before)
                << "aggregate read materialized rack " << i;
            const BbuModel &pa = sa.bbu(0);
            const BbuModel &pb = sb.bbu(0);
            ASSERT_TRUE(sameBits(pa.dod(), pb.dod()))
                << "rack " << i << " step " << step;
            ASSERT_TRUE(pa.matches(pb.chargeState()))
                << "rack " << i << " step " << step;
            ASSERT_TRUE(sameBits(pa.inputPower().value(),
                                 pb.inputPower().value()))
                << "rack " << i << " step " << step;
            ASSERT_EQ(table.resident(i), resident)
                << "a read evicted rack " << i;
            if (!resident)
                continue;
            ++resident_reads;
            cv_reads += sa.cvCount() > 0 ? 1 : 0;
            if (rng.uniform(0.0, 1.0) < 0.2) {
                // Mutable pack access evicts; the shelf's own
                // aggregates answer now.
                (void)lanes.rack(static_cast<int>(i)).shelf().bbu(2);
                (void)walk.rack(static_cast<int>(i)).shelf().bbu(2);
                ASSERT_FALSE(table.resident(i)) << "rack " << i;
                same_reads();
                ++evicting_reads;
            }
        }
    }
    // The reads must have found lanes resident, in CC and in CV.
    EXPECT_GT(resident_reads, 1000);
    EXPECT_GT(cv_reads, 300);
    EXPECT_GT(evicting_reads, 100);
    for (const power::Rack *r : lanes.racks())
        EXPECT_TRUE(r->shelf().fullyCharged()) << r->name();
}

TEST(BatchSetting, AcceptsOnOffAndUnset)
{
    EXPECT_TRUE(batchChargingFor(nullptr));
    EXPECT_TRUE(batchChargingFor(""));
    EXPECT_TRUE(batchChargingFor("on"));
    EXPECT_FALSE(batchChargingFor("off"));
}

TEST(BatchSettingDeathTest, RejectsOtherValues)
{
    for (const char *bad : {"0", "1", "false", "OFF", "On", " off"}) {
        EXPECT_EXIT(batchChargingFor(bad), testing::ExitedWithCode(1),
                    std::string("DCBATT_BATCH=") + bad
                        + ": expected one of on.off")
            << bad;
    }
}

} // namespace
} // namespace dcbatt::battery

/**
 * @file
 * Bit-parity contract of the batched CC-CV lanes
 * (battery/batch_charge_kernel.h):
 *
 *  1. export -> batch advance -> apply must leave a pack in exactly
 *     the state BbuModel::step() would have produced (every double
 *     bit-equal), across CC, CV, and the boundary steps that fall
 *     back to the scalar path;
 *  2. the AVX2 lanes must be bit-identical to the scalar lanes;
 *  3. a Topology stepped with batching on and off must produce
 *     byte-identical fleet rows.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "battery/batch_charge_kernel_internal.h"
#include "battery/bbu.h"
#include "obs/metrics.h"
#include "power/topology.h"
#include "util/random.h"

namespace dcbatt::battery {
namespace {

using util::Amperes;
using util::Seconds;

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

TEST(BatchLane, ExportApplyMatchesScalarStepBitExact)
{
    BbuParams params;
    BatchChargeKernel kernel(params);
    int cc_lanes = 0;
    int cv_lanes = 0;
    int scalar_steps = 0;
    for (double dod : {0.95, 0.6, 0.3, 0.15}) {
        for (double sp : {1.0, 2.5, 5.0}) {
            for (double dt : {1.0, 4.0, 37.5}) {
                BbuModel scalar(params);
                BbuModel batched(params);
                scalar.forceDod(dod);
                batched.forceDod(dod);
                scalar.startCharging(Amperes(sp));
                batched.startCharging(Amperes(sp));
                BatchChargeStage stage;
                for (int i = 0; i < 100000 && scalar.charging();
                     ++i) {
                    scalar.step(Seconds(dt));
                    stage.clear();
                    BatchLaneKind kind =
                        batched.tryExportBatchLane(dt, stage);
                    if (kind == BatchLaneKind::None) {
                        ++scalar_steps;
                        batched.step(Seconds(dt));
                    } else {
                        kind == BatchLaneKind::Cc ? ++cc_lanes
                                                  : ++cv_lanes;
                        kernel.advanceWithMode(stage, dt,
                                               SimdMode::Scalar);
                        batched.applyBatchLane(kind, 0, stage);
                    }
                    expectBitEqual(scalar, batched, i);
                }
                EXPECT_TRUE(scalar.fullyCharged());
                EXPECT_TRUE(batched.fullyCharged());
            }
        }
    }
    // Every path must actually have been exercised.
    EXPECT_GT(cc_lanes, 100);
    EXPECT_GT(cv_lanes, 100);
    EXPECT_GT(scalar_steps, 10);
}

TEST(BatchLane, IneligibleConfigurationsStayScalar)
{
    BbuParams params;
    BatchChargeStage stage;

    BbuModel idle(params);
    EXPECT_EQ(idle.tryExportBatchLane(4.0, stage),
              BatchLaneKind::None);

    BbuModel paused(params);
    paused.forceDod(0.8);
    paused.startCharging(Amperes(5.0));
    paused.setPaused(true);
    EXPECT_EQ(paused.tryExportBatchLane(4.0, stage),
              BatchLaneKind::None);

    // A step that crosses the CC->CV handover must not stage.
    BbuModel near_handover(params);
    near_handover.forceDod(0.8);
    near_handover.startCharging(Amperes(5.0));
    EXPECT_EQ(near_handover.tryExportBatchLane(1e9, stage),
              BatchLaneKind::None);

    EXPECT_EQ(stage.ccLanes(), 0u);
    EXPECT_EQ(stage.cvLanes(), 0u);
}

TEST(BatchKernel, Avx2LanesMatchScalarBitExact)
{
    if (!internal::cpuHasAvx2())
        GTEST_SKIP() << "CPU has no AVX2";
    BbuParams params;
    BatchChargeKernel kernel(params);
    util::Rng rng(0x5eed);
    // Odd lane count: the last three CC / CV lanes take the scalar
    // tail inside the AVX2 mode, which must splice seamlessly.
    constexpr size_t kLanes = 1003;
    BatchChargeStage scalar_stage;
    for (size_t i = 0; i < kLanes; ++i) {
        scalar_stage.ccDod.push_back(rng.uniform(0.25, 1.0));
        scalar_stage.ccSetpointA.push_back(rng.uniform(1.0, 5.0));
        scalar_stage.cvDod.push_back(rng.uniform(0.0, 0.2));
        scalar_stage.cvI0A.push_back(rng.uniform(0.4, 5.0));
        scalar_stage.cvSetpointA.push_back(rng.uniform(1.0, 5.0));
        scalar_stage.cvElapsedS.push_back(rng.uniform(0.0, 900.0));
    }
    BatchChargeStage avx_stage = scalar_stage;
    for (double dt : {1.0, 4.0, 37.5}) {
        kernel.advanceWithMode(scalar_stage, dt, SimdMode::Scalar);
        kernel.advanceWithMode(avx_stage, dt, SimdMode::Avx2);
        for (size_t i = 0; i < kLanes; ++i) {
            ASSERT_EQ(
                std::bit_cast<uint64_t>(scalar_stage.ccDodOut[i]),
                std::bit_cast<uint64_t>(avx_stage.ccDodOut[i]))
                << i;
            ASSERT_EQ(
                std::bit_cast<uint64_t>(scalar_stage.ccInputW[i]),
                std::bit_cast<uint64_t>(avx_stage.ccInputW[i]))
                << i;
            ASSERT_EQ(
                std::bit_cast<uint64_t>(scalar_stage.cvDodOut[i]),
                std::bit_cast<uint64_t>(avx_stage.cvDodOut[i]))
                << i;
            ASSERT_EQ(std::bit_cast<uint64_t>(
                          scalar_stage.cvElapsedOutS[i]),
                      std::bit_cast<uint64_t>(
                          avx_stage.cvElapsedOutS[i]))
                << i;
            ASSERT_EQ(
                std::bit_cast<uint64_t>(scalar_stage.cvCurrentA[i]),
                std::bit_cast<uint64_t>(avx_stage.cvCurrentA[i]))
                << i;
            ASSERT_EQ(
                std::bit_cast<uint64_t>(scalar_stage.cvInputW[i]),
                std::bit_cast<uint64_t>(avx_stage.cvInputW[i]))
                << i;
        }
    }
}

/**
 * End-to-end differential: a topology recharging after an outage must
 * produce byte-identical fleet rows whether or not stepRacks() batches
 * the lockstep lanes (DCBATT_BATCH=off forces the per-rack walk).
 */
std::vector<uint64_t>
runRechargeSeries()
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
        topo.stepRacks(Seconds(4.0));
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
    ASSERT_EQ(setenv("DCBATT_BATCH", "off", 1), 0);
    std::vector<uint64_t> scalar_series = runRechargeSeries();
    uint64_t lanes_before = lanes.value();
    ASSERT_EQ(setenv("DCBATT_BATCH", "on", 1), 0);
    std::vector<uint64_t> batched_series = runRechargeSeries();
    unsetenv("DCBATT_BATCH");
    // The batched run must actually have staged lanes (the comparison
    // would pass vacuously if everything fell back to the walk).
    EXPECT_GT(lanes.value(), lanes_before + 1000);
    ASSERT_EQ(scalar_series.size(), batched_series.size());
    for (size_t i = 0; i < scalar_series.size(); ++i)
        ASSERT_EQ(scalar_series[i], batched_series[i]) << i;
}

} // namespace
} // namespace dcbatt::battery

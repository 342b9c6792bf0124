/**
 * @file
 * The Dynamo control plane reads every per-rack quantity from the
 * topology's fleet columns (battery::FleetState). This file checks that
 * read path against a walk over the Rack, PowerShelf and RackAgent
 * objects at every control tick of three runs: the charge snapshot
 * handed to the coordinator, field by field and bit for bit, and every
 * controller's anyCharging() bit.
 *
 * The plane's own periodic task is replaced by an identical one armed
 * at the same point, which ticks the plane and then checks the bits;
 * the coordinator is wrapped so that each snapshot is checked as the
 * coordinator receives it, in the middle of the root controller's tick.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/msb_run.h"
#include "core/priority_aware_coordinator.h"
#include "dynamo/controller.h"
#include "power/region_spec.h"
#include "sim/region_engine.h"
#include "trace/streaming_trace_source.h"
#include "trace/trace_generator.h"
#include "util/logging.h"

namespace dcbatt::dynamo {
namespace {

using util::Seconds;

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/**
 * A coordinator that checks each snapshot against the object walk
 * before handing it to the real one, and counts the differences.
 */
class CheckingCoordinator final : public ChargingCoordinator
{
  public:
    explicit CheckingCoordinator(std::unique_ptr<ChargingCoordinator> inner)
        : inner_(std::move(inner))
    {
    }

    /** The plane whose agents the walk visits; set before the run. */
    void watch(const ControlPlane &plane) { plane_ = &plane; }

    std::string name() const override { return inner_->name(); }
    bool managesCurrents() const override
    {
        return inner_->managesCurrents();
    }

    std::vector<OverrideCommand>
    planInitial(const std::vector<RackChargeInfo> &racks,
                util::Watts available_power) override
    {
        // The controller estimates each rack's DOD from its shelf when
        // the event begins; the walk records the same estimate.
        initialDod_.clear();
        for (const auto &agent : plane_->agents())
            initialDod_.push_back(agent->rack().shelf().meanDod());
        check(racks);
        return inner_->planInitial(racks, available_power);
    }

    std::vector<OverrideCommand>
    onTick(const std::vector<RackChargeInfo> &racks,
           util::Watts headroom) override
    {
        check(racks);
        return inner_->onTick(racks, headroom);
    }

    /** Every controller's anyCharging() against the walk. */
    void
    checkAnyCharging()
    {
        for (const auto &controller : plane_->controllers()) {
            bool want = false;
            for (const power::Rack *rack :
                 controller->node().racksBelow())
                want = want || rack->shelf().anyCharging();
            ++checked_;
            if (controller->anyCharging() != want) {
                mismatch(util::strf("%s anyCharging %d, walk %d",
                                    controller->node().name().c_str(),
                                    controller->anyCharging(), want));
            }
        }
    }

    uint64_t snapshots() const { return snapshots_; }
    uint64_t checked() const { return checked_; }
    uint64_t mismatches() const { return mismatches_; }
    const std::string &firstMismatch() const { return first_; }
    /** Snapshot rows seen held, capped, and touched since the step. */
    uint64_t heldRows() const { return heldRows_; }
    uint64_t cappedRows() const { return cappedRows_; }
    uint64_t touchedRows() const { return touchedRows_; }

  private:
    void
    mismatch(std::string what)
    {
        if (mismatches_++ == 0)
            first_ = std::move(what);
    }

    void
    field(const char *name, size_t k, std::uint64_t got,
          std::uint64_t want)
    {
        ++checked_;
        if (got != want) {
            mismatch(util::strf("snapshot %llu row %zu: %s differs",
                                static_cast<unsigned long long>(
                                    snapshots_),
                                k, name));
        }
    }

    void
    check(const std::vector<RackChargeInfo> &racks)
    {
        ++snapshots_;
        const auto &agents = plane_->agents();
        if (racks.size() != agents.size()) {
            mismatch(util::strf("snapshot of %zu racks, %zu agents",
                                racks.size(), agents.size()));
            return;
        }
        for (size_t k = 0; k < racks.size(); ++k) {
            const RackChargeInfo &got = racks[k];
            const RackAgent &agent = *agents[k];
            const power::Rack &rack = agent.rack();
            const double dod =
                k < initialDod_.size() ? initialDod_[k] : 0.0;
            field("rackId", k, static_cast<std::uint64_t>(got.rackId),
                  static_cast<std::uint64_t>(rack.id()));
            field("priority", k,
                  static_cast<std::uint64_t>(got.priority),
                  static_cast<std::uint64_t>(rack.priority()));
            field("initialDod", k, bits(got.initialDod), bits(dod));
            field("setpoint", k, bits(got.setpoint.value()),
                  bits(rack.shelf().chargeSetpoint().value()));
            field("rechargePower", k, bits(got.rechargePower.value()),
                  bits(rack.rechargePower().value()));
            field("itLoad", k, bits(got.itLoad.value()),
                  bits(rack.itLoad().value()));
            field("capAmount", k, bits(got.capAmount.value()),
                  bits(rack.capAmount().value()));
            field("charging", k, got.charging,
                  rack.shelf().anyCharging());
            field("held", k, got.held, agent.holdCommanded());
            heldRows_ += got.held ? 1 : 0;
            cappedRows_ += got.capAmount.value() > 0.0 ? 1 : 0;
            touchedRows_ += rack.powerTouched() ? 1 : 0;
        }
        checkAnyCharging();
    }

    std::unique_ptr<ChargingCoordinator> inner_;
    const ControlPlane *plane_ = nullptr;
    std::vector<double> initialDod_;
    uint64_t snapshots_ = 0;
    uint64_t checked_ = 0;
    uint64_t mismatches_ = 0;
    uint64_t heldRows_ = 0;
    uint64_t cappedRows_ = 0;
    uint64_t touchedRows_ = 0;
    std::string first_;
};

/** What one checked run saw. */
struct CheckedRun
{
    uint64_t ticks = 0;
    uint64_t snapshots = 0;
    uint64_t checked = 0;
    uint64_t mismatches = 0;
    std::string firstMismatch;
    uint64_t heldRows = 0;
    uint64_t cappedRows = 0;
    uint64_t touchedRows = 0;
    /** Ticks after which the root's charging event was active. */
    uint64_t eventTicks = 0;
};

/**
 * Run @p config over @p rows for @p duration with the coordinator
 * wrapped, ticking the plane on its own cadence and checking every
 * tick; @p ceiling, when set, is imposed on the root controller.
 */
CheckedRun
runChecked(core::MsbRunConfig config, trace::DemandRows &rows,
           Seconds duration, std::optional<util::Watts> ceiling = {})
{
    auto checking = std::make_unique<CheckingCoordinator>(
        std::move(config.coordinator));
    CheckingCoordinator &checker = *checking;
    config.coordinator = std::move(checking);
    const Seconds tick_period = config.controller.tickPeriod;

    sim::EventQueue queue;
    core::MsbRun run(std::move(config), queue, rows, [](Seconds) {});
    ControlPlane &plane = run.plane();
    checker.watch(plane);
    if (ceiling)
        plane.rootController().setLimitCeiling(*ceiling);
    plane.stop();
    CheckedRun out;
    sim::PeriodicTask control(queue, sim::toTicks(tick_period),
                              [&](sim::Tick) {
                                  plane.tickAll();
                                  // Caps move IT load mid-tick, never
                                  // the charging counts.
                                  checker.checkAnyCharging();
                                  ++out.ticks;
                                  out.eventTicks +=
                                      plane.rootController()
                                              .chargingEventActive()
                                          ? 1
                                          : 0;
                              });
    control.start();
    queue.runUntil(sim::toTicks(duration));
    control.stop();
    run.finish();
    out.snapshots = checker.snapshots();
    out.checked = checker.checked();
    out.mismatches = checker.mismatches();
    out.firstMismatch = checker.firstMismatch();
    out.heldRows = checker.heldRows();
    out.cappedRows = checker.cappedRows();
    out.touchedRows = checker.touchedRows();
    return out;
}

/** A TraceSet replayed from trace time @p t0 (zero-order hold). */
class TraceRows final : public trace::DemandRows
{
  public:
    TraceRows(const trace::TraceSet &set, Seconds t0)
        : set_(&set), t0_(t0),
          row_(static_cast<size_t>(set.rackCount()))
    {
    }

    size_t
    sampleIndexAt(Seconds t) const override
    {
        return set_->rack(0).indexAt(t0_ + t);
    }

    const double *
    row(size_t index) override
    {
        for (size_t i = 0; i < row_.size(); ++i)
            row_[i] = set_->rack(static_cast<int>(i))[index];
        return row_.data();
    }

  private:
    const trace::TraceSet *set_;
    Seconds t0_;
    std::vector<double> row_;
};

/**
 * The paper's charging event on its 316-rack MSB (as dcbatt_sim sets
 * it up): Algorithm 1 under @p limit_mw with the open transition at
 * the trace's first peak, sized for @p dod.
 */
CheckedRun
paperEvent(double limit_mw, double dod, bool postpone,
           Seconds actuation_lag = Seconds(20.0))
{
    constexpr int kRacks = 316;
    const std::vector<power::Priority> priorities =
        power::makePriorityMix(89, 142, 85);
    trace::TraceGenSpec tspec;
    tspec.rackCount = kRacks;
    tspec.startTime = util::hours(10.0);
    tspec.duration = util::hours(8.0);
    tspec.aggregateMean = util::megawatts(2.0);
    tspec.aggregateAmplitude = util::megawatts(0.1);
    tspec.priorities = priorities;
    const trace::TraceSet traces = trace::generateTraces(tspec);

    const size_t peak = traces.firstPeakIndex();
    const Seconds peak_time(traces.rack(0).timeAt(peak).value());
    const battery::BbuParams params;
    const Seconds ot_length = power::openTransitionLength(
        params, dod,
        util::Watts(traces.aggregate()[peak] / kRacks), std::nullopt);
    const Seconds t0 = peak_time - util::minutes(10.0);

    core::MsbRunConfig config;
    power::TopologySpec &spec = config.topology;
    spec.rootKind = power::NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = (kRacks + 2 * 16 - 1) / (2 * 16);
    spec.racksPerRpp = 16;
    spec.totalRacks = kRacks;
    spec.msbLimit = util::megawatts(limit_mw);
    spec.sbLimit = util::megawatts(50.0);
    spec.rppLimit = util::megawatts(50.0);
    spec.priorities = priorities;
    config.charger = battery::makeVariableCharger();
    core::PriorityAwareOptions options;
    options.allowPostponement = postpone;
    config.coordinator = std::make_unique<core::PriorityAwareCoordinator>(
        core::SlaCurrentCalculator(battery::ChargeTimeModel(),
                                   core::SlaTable::paperDefault()),
        options);
    config.controller.actuationLag = actuation_lag;
    config.otStart = peak_time - t0;
    config.otLength = ot_length;
    const Seconds duration = config.otStart + ot_length + util::hours(2.5);
    TraceRows rows(traces, t0);
    return runChecked(std::move(config), rows, duration);
}

void
expectClean(const CheckedRun &r)
{
    EXPECT_EQ(r.mismatches, 0u) << r.firstMismatch;
    // Not vacuous: the event ran under the checks.
    EXPECT_GT(r.ticks, 1000u);
    EXPECT_GT(r.eventTicks, 500u);
    // One snapshot per event tick, and a second at the event's start.
    EXPECT_GT(r.snapshots, r.eventTicks);
    EXPECT_GT(r.checked, 100000u);
}

TEST(DynamoColumns, TableThreePriorityAwareEvent)
{
    CheckedRun r = paperEvent(2.3, 0.5, false);
    expectClean(r);
    // The open transition ends on a tick: its racks are touched then.
    EXPECT_GT(r.touchedRows, 0u);
}

TEST(DynamoColumns, PostponementWithHoldsInFlight)
{
    // A 21 s actuation lag lands every hold, resume and override on a
    // 3 s tick, ahead of that second's physics step, so the tick reads
    // rows the commands touched since the step.
    CheckedRun r = paperEvent(2.2, 0.7, true, Seconds(21.0));
    expectClean(r);
    EXPECT_GT(r.heldRows, 0u);
    EXPECT_GT(r.touchedRows, 0u);
}

TEST(DynamoColumns, RegionBindingShape)
{
    // tests/golden/region_4x64_3h_binding's region, one MSB at a time,
    // each under an even share of the binding budget.
    power::RegionSpec spec;
    spec.msbs = 4;
    spec.racksPerMsb = 64;
    spec.msbAggregateMean = util::megawatts(0.4267);
    spec.msbAggregateAmplitude = spec.msbAggregateMean * 0.075;
    spec.duration = util::hours(3.0);
    spec.firstOutage = util::hours(1.0);
    spec.outageStagger = Seconds(0.0);
    spec.coordinationPeriod = Seconds(3.0);
    spec.regionBudget = util::megawatts(1.68);
    power::validateRegionSpec(spec);
    uint64_t capped = 0;
    for (int msb = 0; msb < spec.msbs; ++msb) {
        core::MsbRunConfig config;
        config.topology = power::msbTopologySpec(spec, msb);
        config.charger = battery::makeVariableCharger(spec.bbuParams);
        config.coordinator =
            std::make_unique<core::PriorityAwareCoordinator>(
                core::SlaCurrentCalculator(
                    battery::ChargeTimeModel(spec.bbuParams),
                    core::SlaTable::paperDefault()),
                core::PriorityAwareOptions{});
        config.physicsStep = spec.physicsStep;
        config.otStart = power::msbOutageStart(spec, msb);
        config.otLength = power::msbOutageLength(spec);
        trace::StreamingTraceSource rows(sim::msbTraceSpec(spec, msb));
        SCOPED_TRACE(msb);
        CheckedRun r = runChecked(
            std::move(config), rows, spec.duration,
            power::effectiveRegionBudget(spec)
                / static_cast<double>(spec.msbs));
        expectClean(r);
        capped += r.cappedRows;
    }
    EXPECT_GT(capped, 0u);
}

} // namespace
} // namespace dcbatt::dynamo

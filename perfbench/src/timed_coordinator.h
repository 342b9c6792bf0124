/**
 * @file
 * Timing decorator around a ChargingCoordinator, plus the per-run
 * tallies both harnesses take from the objects they built.
 */

#ifndef DCBATT_PERFBENCH_TIMED_COORDINATOR_H_
#define DCBATT_PERFBENCH_TIMED_COORDINATOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/priority_aware_coordinator.h"
#include "dynamo/coordinator.h"
#include "ledger.h"
#include "power/topology.h"

namespace perfbench {

/**
 * Forwards every call to the wrapped policy inside a CorePlan span.
 * The control plane sees the same answers, so the decorator never
 * changes an outcome.
 */
class TimedCoordinator : public dcbatt::dynamo::ChargingCoordinator
{
  public:
    explicit TimedCoordinator(
        std::unique_ptr<dcbatt::dynamo::ChargingCoordinator> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    bool managesCurrents() const override
    {
        return inner_->managesCurrents();
    }

    std::vector<dcbatt::dynamo::OverrideCommand>
    planInitial(const std::vector<dcbatt::dynamo::RackChargeInfo> &racks,
                dcbatt::util::Watts available_power) override
    {
        Span span(SpanKind::CorePlan);
        return inner_->planInitial(racks, available_power);
    }

    std::vector<dcbatt::dynamo::OverrideCommand>
    onTick(const std::vector<dcbatt::dynamo::RackChargeInfo> &racks,
           dcbatt::util::Watts headroom) override
    {
        Span span(SpanKind::CorePlan);
        return inner_->onTick(racks, headroom);
    }

    /** Fold the SLA memo counters of a priority-aware policy. */
    void
    tallyMemo() const
    {
        const auto *pac =
            dynamic_cast<const dcbatt::core::PriorityAwareCoordinator *>(
                inner_.get());
        if (pac == nullptr)
            return;
        tally(Tally::MemoHits, pac->slaMemoStats().hits);
        tally(Tally::MemoMisses, pac->slaMemoStats().misses);
    }

  private:
    std::unique_ptr<dcbatt::dynamo::ChargingCoordinator> inner_;
};

/** Fold every shelf's step-kind counters of @p topo. */
inline void
tallyShelves(dcbatt::power::Topology &topo)
{
    for (dcbatt::power::Rack *rack : topo.racks()) {
        const auto &stats = rack->shelf().stepStats();
        tally(Tally::ShelfQuiescent, stats.quiescentSteps);
        tally(Tally::ShelfLockstep, stats.lockstepSteps);
        tally(Tally::ShelfFull, stats.fullSteps);
    }
}

} // namespace perfbench

#endif // DCBATT_PERFBENCH_TIMED_COORDINATOR_H_

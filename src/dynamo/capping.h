/**
 * @file
 * Priority-aware server power capping (Dynamo's last line of defense).
 *
 * When a breaker is overloaded and charging currents are already at
 * their floor, Dynamo caps server power "according to priority of
 * services running on those servers" (Section II-B). The engine here
 * distributes a required reduction across racks: lowest priority
 * first, proportionally to each rack's IT load within a priority
 * class, and releases caps (highest priority first) when headroom
 * returns.
 */

#ifndef DCBATT_DYNAMO_CAPPING_H_
#define DCBATT_DYNAMO_CAPPING_H_

#include <vector>

#include "dynamo/agent.h"
#include "util/units.h"

namespace dcbatt::dynamo {

/**
 * Distributes power caps across a set of rack agents.
 *
 * Each engine keeps a ledger of the caps *it* imposed and only ever
 * releases those: several controllers (MSB, SB, RPP) watch overlapping
 * rack sets, and a controller with ample headroom must not undo the
 * caps a constrained upstream controller just applied. An engine
 * serves one agent span, in rack-row order, handed to every call.
 */
class CappingEngine
{
  public:
    /** Fraction of IT load a rack can shed at most (capping floor). */
    explicit CappingEngine(double max_cap_fraction = 0.4)
        : maxCapFraction_(max_cap_fraction) {}

    /**
     * Increase caps so total IT load drops by @p reduction. Returns
     * the reduction actually achievable (less when every rack is at
     * its capping floor).
     */
    util::Watts applyReduction(AgentSpan agents, util::Watts reduction);

    /**
     * Release up to @p headroom of existing caps (highest priority
     * racks are released first). Returns the amount released.
     */
    util::Watts release(AgentSpan agents, util::Watts headroom);

    /** Remove all caps this engine imposed. */
    void releaseAll(AgentSpan agents);

    /** Sum of caps currently imposed by this engine. */
    util::Watts totalCap() const { return util::Watts(total_); }

  private:
    /** Size the ledger to @p agents on first use. */
    void bind(AgentSpan agents);
    /** Re-fold total_ after a call that may have moved the ledger. */
    void refold();

    double maxCapFraction_;
    /** Watts of cap this engine holds, parallel to the agents. */
    std::vector<double> ledger_;
    /**
     * The ledger folded in rack-id order, so the sum's rounding is a
     * stable function of the ledger contents (determinism contract,
     * DESIGN.md §13); re-folded only when a call moved the ledger.
     */
    double total_ = 0.0;
};

} // namespace dcbatt::dynamo

#endif // DCBATT_DYNAMO_CAPPING_H_

/**
 * @file
 * The data-center power-delivery hierarchy (Fig. 1).
 *
 * Power flows site -> building -> suite -> MSB -> SB -> RPP -> rack.
 * Each MSB/SB/RPP carries a circuit breaker with the Open Compute
 * ratings the paper quotes (2.5 MW / 1.25 MW / 190 kW). The topology
 * owns the node tree and the racks; power draw aggregates leaf-to-root.
 *
 * Open transitions (the brief input-power loss during source
 * switch-overs) can be injected at any node: every rack beneath it
 * falls onto its batteries and recharges when power returns.
 */

#ifndef DCBATT_POWER_TOPOLOGY_H_
#define DCBATT_POWER_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "battery/charger_policy.h"
#include "battery/fleet_state.h"
#include "power/breaker.h"
#include "power/rack.h"
#include "sim/event_queue.h"
#include "util/units.h"

namespace dcbatt::power {

/** Level of a node in the power hierarchy. */
enum class NodeKind
{
    Site,
    Building,
    Suite,
    Msb,
    Sb,
    Rpp,
    RackNode,
};

const char *toString(NodeKind kind);

/** One node of the power tree. Leaves reference a Rack. */
class PowerNode
{
  public:
    PowerNode(std::string name, NodeKind kind);

    const std::string &name() const { return name_; }
    NodeKind kind() const { return kind_; }

    PowerNode *parent() const { return parent_; }
    const std::vector<PowerNode *> &children() const { return children_; }
    void addChild(PowerNode *child);

    /** Breaker protecting this node (null for site/building/rack). */
    CircuitBreaker *breaker() { return breaker_.get(); }
    const CircuitBreaker *breaker() const { return breaker_.get(); }
    void attachBreaker(std::unique_ptr<CircuitBreaker> breaker);

    Rack *rack() const { return rack_; }
    void attachRack(Rack *rack);

    /**
     * Aggregate input power of the subtree rooted here. Cached: the
     * recursive sum is only recomputed for subtrees whose racks were
     * dirtied since the last read (children are summed in child order
     * either way, so the cached value is bit-identical to a cold
     * recompute).
     */
    util::Watts inputPower() const;

    /**
     * Mark this node's cached aggregate stale, walking up to the
     * root. The walk stops at the first already-invalid ancestor:
     * invalidation always proceeds leaf-to-root, so an invalid node
     * implies invalid ancestors.
     */
    void invalidatePower();

    /**
     * Non-recursive cache refresh: recompute this node's aggregate
     * from its children's caches (or its rack), assuming every child
     * is already fresh. Callers must visit children first —
     * Topology::observeBreakers walks nodes in reverse creation order,
     * which is bottom-up because children are always created after
     * their parents.
     */
    void refreshPowerCache() const;

    /**
     * Whether the cached aggregate is fresh. A fresh node implies a
     * fresh subtree: invalidation always walks up to the root, and a
     * refresh needs fresh children.
     */
    bool powerCacheValid() const { return powerCacheValid_; }

    /** All racks in this subtree (depth-first order). */
    std::vector<Rack *> racksBelow() const;

  private:
    std::string name_;
    NodeKind kind_;
    PowerNode *parent_ = nullptr;
    std::vector<PowerNode *> children_;
    std::unique_ptr<CircuitBreaker> breaker_;
    Rack *rack_ = nullptr;
    mutable double cachedPowerW_ = 0.0;
    mutable bool powerCacheValid_ = false;
};

/** Shape and ratings of a topology to build. */
struct TopologySpec
{
    NodeKind rootKind = NodeKind::Msb;
    std::string rootName = "msb0";

    int buildingsPerSite = 1;
    int suitesPerBuilding = 4;
    int msbsPerSuite = 3;
    int sbsPerMsb = 2;
    int rppsPerSb = 10;
    int racksPerRpp = 16;

    /** Stop creating racks after this many (-1 = fill the shape). */
    int totalRacks = -1;

    util::Watts msbLimit = util::megawatts(2.5);
    util::Watts sbLimit = util::megawatts(1.25);
    util::Watts rppLimit = util::kilowatts(190.0);

    /**
     * Per-rack priorities in creation order; cycled when shorter than
     * the rack count. Empty means everything is P2.
     */
    std::vector<Priority> priorities;

    battery::BbuParams bbuParams;
};

/**
 * Deterministic per-rack priority list with the given counts,
 * proportionally interleaved (so every row gets a representative mix,
 * like a production deployment).
 */
std::vector<Priority> makePriorityMix(int p1, int p2, int p3);

/** An owned power tree plus its racks. */
class Topology
{
  public:
    /** Build the tree described by @p spec. */
    static Topology build(
        const TopologySpec &spec,
        std::shared_ptr<const battery::ChargerPolicy> policy);

    Topology(Topology &&) = default;
    Topology &operator=(Topology &&) = default;

    PowerNode &root() { return *root_; }
    const PowerNode &root() const { return *root_; }

    const std::vector<Rack *> &racks() const { return rackPtrs_; }
    Rack &rack(int id) { return *rackPtrs_[static_cast<size_t>(id)]; }

    /** All nodes of the given kind, in creation order. */
    std::vector<PowerNode *> nodesOfKind(NodeKind kind) const;

    /**
     * Advance every rack's physics by dt in one batch pass, refreshing
     * the struct-of-arrays fleet snapshot as it goes. A rack whose
     * step is a no-op (input on, nothing charging) and which nothing
     * touched since its row was last refreshed keeps its row as is;
     * when no row changed, the power totals are kept too. When the
     * topology is quiet() the step visits no rack at all: it only
     * counts as one more quiescent step of every shelf.
     */
    void stepRacks(util::Seconds dt);

    /**
     * Whether no rack was touched since the last stepRacks() and every
     * rack was quiescent at it — so none is charging or off input
     * power now, and the next step would leave every row as is.
     */
    bool
    quiet() const
    {
        return !activity_->touched && !activity_->active;
    }

    /**
     * Per-rack hot-state rows (rack id == row index), refreshed by
     * stepRacks(). Valid between a stepRacks() call and the next
     * rack mutation.
     */
    const battery::FleetState &fleet() const { return *fleet_; }

    /**
     * The rows the last stepRacks() refreshed, in rack-id order; every
     * other row holds the same values as before that call.
     */
    const std::vector<size_t> &refreshedRows() const
    {
        return refreshedRows_;
    }

    /**
     * Fleet-wide power sums of the last stepRacks() call, folded in
     * row order over the rows it just refreshed (the rows are hot in
     * cache there; per-step consumers would otherwise re-walk the
     * fleet every physics tick). itW counts powered racks only,
     * matching the per-row predicate `inputOn`.
     */
    struct StepPowerTotals
    {
        double itW = 0.0;
        double rechargeW = 0.0;
        double capW = 0.0;
    };

    const StepPowerTotals &stepPowerTotals() const { return stepTotals_; }

    /** Update breaker thermal state for every node with a breaker. */
    void observeBreakers(util::Seconds dt);

    /** Cut input power for every rack under @p node. */
    static void startOpenTransition(PowerNode &node);
    /** Restore input power for every rack under @p node. */
    static void endOpenTransition(PowerNode &node);

    /**
     * Schedule an open transition on @p queue: power lost at @p at,
     * restored @p duration later.
     */
    void scheduleOpenTransition(sim::EventQueue &queue, PowerNode &node,
                                sim::Tick at, sim::Tick duration);

  private:
    Topology() = default;

    PowerNode *newNode(std::string name, NodeKind kind);

    /** One rack staged for the batched lockstep charge sweep. */
    struct BatchLaneRef
    {
        Rack *rack;
        battery::BatchLaneKind kind;
    };

    std::vector<std::unique_ptr<PowerNode>> nodes_;
    std::vector<std::unique_ptr<Rack>> racks_;
    std::vector<Rack *> rackPtrs_;
    /** Owned via pointer so the rows stay put across Topology moves. */
    std::unique_ptr<battery::FleetState> fleet_;
    /**
     * Batched-charging scratch, reused across stepRacks() calls (the
     * vectors keep their capacity). The kernel is built lazily on the
     * first step — every rack shares one BbuParams by construction,
     * so the first rack's calibration covers the fleet.
     */
    std::unique_ptr<battery::BatchChargeKernel> batchKernel_;
    battery::BatchChargeStage batchStage_;
    std::vector<BatchLaneRef> batchLanes_;
    /** Rows the last stepRacks() refreshed (see refreshedRows()). */
    std::vector<size_t> refreshedRows_;
    /**
     * Whole-step activity, shared with every rack and shelf (so owned
     * via pointer, like the rows): racks raise `touched`, shelves add
     * `skippedSteps` to their quiescent count.
     */
    struct StepActivity
    {
        /** Some rack was touched since the last stepRacks(). */
        bool touched = true;
        /** Some rack was not quiescent at the last stepRacks(). */
        bool active = true;
        /** Steps skipped as a whole while quiet(). */
        uint64_t skippedSteps = 0;
    };
    std::unique_ptr<StepActivity> activity_;
    StepPowerTotals stepTotals_;
    /** Nodes carrying a breaker, in creation order. */
    std::vector<PowerNode *> breakerNodes_;
    PowerNode *root_ = nullptr;
};

/**
 * Open-transition length that leaves a rack drawing @p mean_rack_power
 * at @p target_mean_dod of its battery energy — how both engines dial
 * the paper's low/medium/high discharge — or @p explicit_length when
 * set.
 */
util::Seconds
openTransitionLength(const battery::BbuParams &params,
                     double target_mean_dod, util::Watts mean_rack_power,
                     std::optional<util::Seconds> explicit_length);

} // namespace dcbatt::power

#endif // DCBATT_POWER_TOPOLOGY_H_

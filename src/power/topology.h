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
#include <span>
#include <string>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "battery/charge_lanes.h"
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

/**
 * The power tree's aggregate cache in flat arrays, owned by a topology
 * and indexed by node creation order, so a parent always precedes its
 * children (the root is node 0). Per node it holds the cached input
 * power, a valid flag, the parent index, and the children in child
 * order (CSR offsets into one index array). A stale node implies stale
 * ancestors: invalidation always walks up to the root, and a refresh
 * needs fresh children.
 */
class PowerTree
{
  public:
    /** Cached aggregate of node @p node in watts, refreshed if stale. */
    double
    power(int32_t node)
    {
        auto i = static_cast<size_t>(node);
        if (!valid_[i])
            refresh();
        return powerW_[i];
    }

    /**
     * Mark node @p node stale, walking up to the root; the walk stops
     * at the first already-stale ancestor.
     */
    void
    invalidate(int32_t node)
    {
        for (; node >= 0 && valid_[static_cast<size_t>(node)];
             node = parent_[static_cast<size_t>(node)])
            valid_[static_cast<size_t>(node)] = 0;
    }

    /** Mark every node stale. */
    void invalidateAll();

    /**
     * Re-sum every stale node bottom-up over the indices, children in
     * child order, so each value is bit-identical to a cold recursive
     * recompute. A fresh root means a fresh tree: that costs one load.
     * When every node is stale and no rack was touched, the leaves
     * are written in one pass over the fleet rows and the inner nodes
     * in one pass over the CSR, with no per-node flag tests.
     */
    void refresh();

  private:
    friend class Topology;
    friend class PowerNode;

    /** refresh() with every node stale and every fleet row current. */
    void refreshAll();

    /**
     * A leaf's input power. When no rack was touched since the last
     * Topology::stepRacks(), every fleet row is current and the leaf
     * reads its row: the same doubles as Rack::inputPower().
     */
    double leafPower(size_t row) const;

    std::vector<double> powerW_;
    std::vector<uint8_t> valid_;
    /** Parent index, -1 at the root. */
    std::vector<int32_t> parent_;
    /** Children of node i: childIndex_[childBegin_[i], childBegin_[i+1]). */
    std::vector<int32_t> childBegin_;
    std::vector<int32_t> childIndex_;
    /** Fleet row of a leaf node, -1 for an inner node. */
    std::vector<int32_t> row_;
    /** Leaf node of each fleet row (row_ inverted). */
    std::vector<int32_t> leafOfRow_;
    /** Inner nodes in reverse creation order: children first. */
    std::vector<int32_t> innerBottomUp_;
    /** Set by invalidateAll(), cleared by refresh(). */
    bool allStale_ = true;
    /** Topology::racks(): racksBelow() ranges, touched leaves' reads. */
    std::vector<Rack *> racks_;
    const battery::FleetState *fleet_ = nullptr;
    const bool *touched_ = nullptr;
};

/** One node of the power tree. Leaves reference a Rack. */
class PowerNode
{
  public:
    /** Node @p index of @p tree (see PowerTree). */
    PowerNode(std::string name, NodeKind kind, PowerTree &tree,
              int32_t index);

    const std::string &name() const { return name_; }
    NodeKind kind() const { return kind_; }

    const std::vector<PowerNode *> &children() const { return children_; }
    void addChild(PowerNode *child);

    /** Breaker protecting this node (null for site/building/rack). */
    CircuitBreaker *breaker() { return breaker_.get(); }
    const CircuitBreaker *breaker() const { return breaker_.get(); }
    void attachBreaker(std::unique_ptr<CircuitBreaker> breaker);

    Rack *rack() const { return rack_; }
    void attachRack(Rack *rack);

    /**
     * Aggregate input power of the subtree rooted here, from the
     * topology's flat cache: only nodes above racks that changed since
     * the last read are re-summed.
     */
    util::Watts
    inputPower() const
    {
        return util::Watts(tree_->power(index_));
    }

    /**
     * The subtree's racks are rows [rowBegin(), rowEnd()): racks are
     * numbered depth-first, so each subtree's rows are contiguous (and
     * empty where TopologySpec::totalRacks left no rack).
     */
    size_t rowBegin() const { return rowBegin_; }
    size_t rowEnd() const { return rowEnd_; }

    /** All racks in this subtree, in row order. */
    std::span<Rack *const>
    racksBelow() const
    {
        return std::span<Rack *const>(tree_->racks_)
            .subspan(rowBegin_, rowEnd_ - rowBegin_);
    }

  private:
    friend class Topology;

    std::string name_;
    NodeKind kind_;
    PowerTree *tree_;
    int32_t index_;
    size_t rowBegin_ = 0;
    size_t rowEnd_ = 0;
    std::vector<PowerNode *> children_;
    std::unique_ptr<CircuitBreaker> breaker_;
    Rack *rack_ = nullptr;
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

    /** Every rack by row (rack id == row). */
    const std::vector<Rack *> &racks() const { return tree_->racks_; }
    Rack &rack(int id) { return *tree_->racks_[static_cast<size_t>(id)]; }

    /** All nodes of the given kind, in creation order. */
    std::vector<PowerNode *> nodesOfKind(NodeKind kind) const;

    /**
     * Store one trace row of IT demand, @p row[i] for rack i, over the
     * fleet's demand column, keeping `itLoadW` current in place. When
     * a demand changed, the tree cache goes stale as a whole and the
     * next stepRacks() re-folds the power totals. No rack is touched:
     * a quiet() topology stays quiet (DESIGN.md §16).
     */
    void applyDemandRow(const double *row);

    /**
     * Advance every rack's physics by dt in one batch pass, refreshing
     * the struct-of-arrays fleet snapshot as it goes. A rack whose
     * step is a no-op (input on, nothing charging) and which nothing
     * touched since its row was last refreshed keeps its row as is;
     * when no row changed and no demand row was applied, the power
     * totals are kept too. When the topology is quiet() the step
     * visits no rack at all: it counts as one more quiescent step of
     * every shelf, and re-folds the totals after a demand row. A rack
     * whose healthy packs charge in lockstep inside one CC/CV segment
     * is stepped as a resident charge lane (battery/charge_lanes.h,
     * DESIGN.md §16) instead of through Rack::step(), which steps each
     * pack, with the same results.
     */
    void
    stepRacks(util::Seconds dt)
    {
        stepRacks(dt, battery::batchChargingEnabled());
    }

    /**
     * stepRacks() with lane batching explicit: with @p batching false
     * no lane stays resident and every charging rack steps each of its
     * packs, the reference the lanes are checked against (the
     * differential tests' hook; DCBATT_BATCH=off does the same for a
     * whole process).
     */
    void stepRacks(util::Seconds dt, bool batching);

    /** The resident charge lanes (battery/charge_lanes.h). */
    const battery::ChargeLanes &chargeLanes() const { return *lanes_; }

    /**
     * Write the snapshot columns of every row touched since the last
     * stepRacks() back from its rack, as that step's phase 4 does; the
     * rows stay touched for the next step. The control plane calls
     * this before it reads the columns.
     */
    void refreshTouchedRows();

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
     * Per-rack power rows (rack id == row index). The demand and cap
     * columns are the racks' storage; the other columns are refreshed
     * by stepRacks() and valid between a stepRacks() call and the next
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
     * row order over every row (per-step consumers would otherwise
     * re-walk the fleet every physics tick). itW counts powered racks
     * only, matching the per-row predicate `inputOn`.
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
    /** Read row @p row's snapshot columns back from its rack. */
    void writeBackRow(size_t row);
    /** Fold stepTotals_ over every fleet row, in row order. */
    void foldStepTotals();

    std::vector<std::unique_ptr<PowerNode>> nodes_;
    std::vector<std::unique_ptr<Rack>> racks_;
    /**
     * Owned via pointer so the rows and the tree cache stay put across
     * Topology moves: racks and nodes point into them.
     */
    std::unique_ptr<battery::FleetState> fleet_;
    std::unique_ptr<PowerTree> tree_;
    /**
     * The resident charge lanes (battery/charge_lanes.h), one table
     * row per rack row; owned via pointer because every shelf
     * points at it.
     */
    std::unique_ptr<battery::ChargeLanes> lanes_;
    /** Rows the last stepRacks() refreshed (see refreshedRows()). */
    std::vector<size_t> refreshedRows_;
    /** The refreshed rows read back through the rack accessors. */
    std::vector<size_t> walkRows_;
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
    /** A demand row changed a row since stepTotals_ was folded. */
    bool totalsStale_ = false;
    /** A breaker and the tree index of the node it protects. */
    struct BreakerRef
    {
        int32_t node;
        CircuitBreaker *breaker;
    };
    /** Every breaker, in node creation order. */
    std::vector<BreakerRef> breakers_;
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

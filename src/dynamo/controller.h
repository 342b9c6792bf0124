/**
 * @file
 * Dynamo controllers.
 *
 * Controllers mirror the power hierarchy: a controller protects one
 * circuit breaker and watches the racks beneath it, a contiguous row
 * range of the topology (power::PowerNode::rowBegin()). It reads them
 * from the fleet columns (battery::FleetState) and actuates through
 * the rack agents of the same rows. One controller in the tree — the
 * *coordination* controller, the MSB in the paper's simulation
 * experiments — additionally runs a ChargingCoordinator that decides
 * per-rack charging currents; every controller (leaf RPP controllers
 * included) independently monitors its breaker and escalates to server
 * power capping as the last resort.
 *
 * Escalation order on overload, per the paper:
 *   1. the coordinator throttles charging currents (reverse
 *      lowest-priority-highest-discharge-first order, down to 1 A),
 *   2. only when every charging rack is already commanded to the
 *      floor — and no override is still in flight (20 s actuation
 *      lag) — does the controller cap servers,
 *   3. caps are released once headroom returns (with hysteresis).
 */

#ifndef DCBATT_DYNAMO_CONTROLLER_H_
#define DCBATT_DYNAMO_CONTROLLER_H_

#include <limits>
#include <memory>
#include <vector>

#include "dynamo/agent.h"
#include "dynamo/capping.h"
#include "dynamo/coordinator.h"
#include "power/topology.h"
#include "sim/event_queue.h"

namespace dcbatt::dynamo {

/** Tunables shared by the controllers of one control plane. */
struct ControllerConfig
{
    /** Dynamo polling cadence. */
    util::Seconds tickPeriod{3.0};
    /** Manual-override actuation latency (Fig. 11). */
    util::Seconds actuationLag{20.0};
    /**
     * Headroom (fraction of limit) kept before releasing caps. Must
     * sit below any coordinator-side hold margin, or released
     * capacity and held charging deadlock each other.
     */
    double releaseMarginFraction = 0.0025;
    /** Cap only after an override has had this long to act. */
    util::Seconds overrideGrace{26.0};
};

/** Controller protecting one breaker node. */
class BreakerController
{
  public:
    /**
     * @param node        power node carrying the protected breaker.
     * @param agents      the plane's agents of the node's rows.
     * @param queue       event queue (time source).
     * @param coordinator optional charging policy; null for pure
     *                    monitor/capping controllers.
     * @param topology    topology whose fleet columns are read.
     */
    BreakerController(power::PowerNode &node, AgentSpan agents,
                      sim::EventQueue &queue,
                      ChargingCoordinator *coordinator,
                      ControllerConfig config,
                      const power::Topology &topology);

    const power::PowerNode &node() const { return *node_; }

    /**
     * Effective power limit: the breaker rating, further clamped by
     * any budget ceiling a region-level splitter has imposed.
     */
    util::Watts limit() const;

    /**
     * Impose (or move) a budget ceiling below the breaker rating. The
     * region budget splitter calls this on MSB root controllers each
     * coordination tick; the controller then runs its normal
     * escalation (throttle charging, then cap servers) against
     * min(breaker limit, ceiling). Infinity — the default — disables
     * the ceiling.
     */
    void setLimitCeiling(util::Watts ceiling) { limitCeiling_ = ceiling; }

    /**
     * Run one monitoring/decision cycle over fleet columns that
     * ControlPlane::tickAll() brought up to date.
     */
    void tick();

    /** Whether any rack under the breaker is charging. */
    bool anyCharging() const;

    /** Whether a charging event is in progress under this breaker. */
    bool chargingEventActive() const { return eventActive_; }

    /** Total server power cap currently imposed by this controller. */
    util::Watts totalCap() const { return capping_.totalCap(); }

    /** Largest cap this controller ever imposed (Table III metric). */
    util::Watts maxCapObserved() const { return maxCapObserved_; }

    /** Number of charging events seen. */
    int chargingEventCount() const { return eventCount_; }

  private:
    /**
     * Rebuild and return the per-rack charge snapshot the coordinator
     * consumes. The buffer is a reused member, valid until the next
     * call; it keeps each row's rack id and priority from construction.
     */
    const std::vector<RackChargeInfo> &snapshotRacks() const;
    util::Watts measuredItLoad() const;
    bool overridesInFlight() const;
    bool allChargingAtFloor() const;
    void issue(const std::vector<OverrideCommand> &commands);

    power::PowerNode *node_;
    const power::Topology *topology_;
    /** The node's rows [rowBegin_, rowBegin_ + agents_.size()). */
    size_t rowBegin_;
    AgentSpan agents_;
    /** The racks' charging-current floor (BbuParams::minCurrent). */
    util::Amperes floor_;
    sim::EventQueue *queue_;
    ChargingCoordinator *coordinator_;
    ControllerConfig config_;
    CappingEngine capping_;

    bool eventActive_ = false;
    int eventCount_ = 0;
    /** Tick at which the current overload episode began (-1: none). */
    sim::Tick overloadSince_ = -1;
    /** Ticks of the current overload episode at the capping floor. */
    int floorTicks_ = 0;
    /**
     * Event-start mean DOD per row; empty when no event is active
     * (snapshots then report 0, like the paper's controllers before
     * their first estimate).
     */
    std::vector<double> initialDod_;
    /** Per row: tick of the last command (-1: none); coordinating only. */
    std::vector<sim::Tick> lastCommandTick_;
    util::Watts maxCapObserved_{0.0};
    /** Budget ceiling on limit(); infinity = no ceiling imposed. */
    util::Watts limitCeiling_{
        std::numeric_limits<double>::infinity()};
    /** Reused snapshot buffer (see snapshotRacks). */
    mutable std::vector<RackChargeInfo> snapshotBuf_;
};

/**
 * The control plane for one experiment: one controller per breaker in
 * the subtree rooted at the coordination node; the root controller
 * carries the ChargingCoordinator. Drives all controllers from one
 * periodic task. It owns an agent per rack row of the coordination
 * node.
 */
class ControlPlane
{
  public:
    ControlPlane(power::Topology &topology,
                 power::PowerNode &coordination_node,
                 sim::EventQueue &queue,
                 ChargingCoordinator *coordinator,
                 ControllerConfig config = {});

    /** Arm the periodic tick (first tick after one period). */
    void start();
    void stop();

    /** Refresh the touched fleet rows, then tick every controller. */
    void tickAll();

    BreakerController &rootController() { return *controllers_.front(); }
    const std::vector<std::unique_ptr<BreakerController>> &
    controllers() const
    {
        return controllers_;
    }

    /** The agent of rack @p rack_id; std::out_of_range if not ours. */
    RackAgent &agentFor(int rack_id);
    const std::vector<std::unique_ptr<RackAgent>> &agents() const
    {
        return agents_;
    }

    /** Sum of caps across the plane's racks, folded in row order. */
    util::Watts totalCap() const;

  private:
    void buildControllers(power::PowerNode &node,
                          ChargingCoordinator *coordinator);

    power::Topology *topology_;
    sim::EventQueue *queue_;
    ControllerConfig config_;
    /** The coordination node's first row; the vectors below start there. */
    size_t rowBegin_;
    std::vector<std::unique_ptr<RackAgent>> agents_;
    std::vector<std::unique_ptr<BreakerController>> controllers_;
    std::unique_ptr<sim::PeriodicTask> task_;
};

} // namespace dcbatt::dynamo

#endif // DCBATT_DYNAMO_CONTROLLER_H_

#include "dynamo/controller.h"

#include <algorithm>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace dcbatt::dynamo {

using power::PowerNode;
using util::Amperes;
using util::Seconds;
using util::Watts;

BreakerController::BreakerController(PowerNode &node, AgentSpan agents,
                                     sim::EventQueue &queue,
                                     ChargingCoordinator *coordinator,
                                     ControllerConfig config,
                                     const power::Topology &topology)
    : node_(&node), topology_(&topology), rowBegin_(node.rowBegin()),
      agents_(agents),
      floor_(topology.racks().front()->shelf().params().minCurrent),
      queue_(&queue), coordinator_(coordinator), config_(config)
{
    DCBATT_REQUIRE(node_->breaker() != nullptr,
                   "node %s has no breaker", node_->name().c_str());
    DCBATT_REQUIRE(agents_.size() == node.rowEnd() - node.rowBegin()
                       && (agents_.empty()
                           || agents_.front()->rackId()
                                  == static_cast<int>(rowBegin_)),
                   "controller %s: agents are not the node's rows",
                   node_->name().c_str());
    if (!coordinator_)
        return;
    lastCommandTick_.assign(agents_.size(), -1);
    snapshotBuf_.resize(agents_.size());
    for (size_t k = 0; k < agents_.size(); ++k) {
        snapshotBuf_[k].rackId = agents_[k]->rackId();
        snapshotBuf_[k].priority = agents_[k]->rack().priority();
    }
}

Watts
BreakerController::limit() const
{
    return util::min(node_->breaker()->limit(), limitCeiling_);
}

Watts
BreakerController::measuredItLoad() const
{
    const double *it_w = topology_->fleet().itLoadW.data() + rowBegin_;
    Watts total(0.0);
    for (size_t k = 0; k < agents_.size(); ++k)
        total += Watts(it_w[k]);
    return total;
}

bool
BreakerController::anyCharging() const
{
    if (topology_->quiet())
        return false;
    const std::int32_t *bbus =
        topology_->fleet().chargingBbus.data() + rowBegin_;
    return std::any_of(bbus, bbus + agents_.size(),
                       [](std::int32_t n) { return n > 0; });
}

const std::vector<RackChargeInfo> &
BreakerController::snapshotRacks() const
{
    const battery::FleetState &fleet = topology_->fleet();
    for (size_t k = 0; k < snapshotBuf_.size(); ++k) {
        const size_t row = rowBegin_ + k;
        RackChargeInfo &info = snapshotBuf_[k];
        info.initialDod = k < initialDod_.size() ? initialDod_[k] : 0.0;
        info.setpoint = Amperes(fleet.setpointA[row]);
        info.rechargePower = Watts(fleet.rechargeW[row]);
        info.itLoad = Watts(fleet.itLoadW[row]);
        info.capAmount = Watts(fleet.capW[row]);
        info.charging = fleet.chargingBbus[row] > 0;
        info.held = agents_[k]->holdCommanded();
    }
    return snapshotBuf_;
}

bool
BreakerController::overridesInFlight() const
{
    sim::Tick grace = sim::toTicks(config_.overrideGrace);
    sim::Tick now = queue_->now();
    for (sim::Tick when : lastCommandTick_) {
        if (when >= 0 && now - when < grace)
            return true;
    }
    return false;
}

bool
BreakerController::allChargingAtFloor() const
{
    const battery::FleetState &fleet = topology_->fleet();
    for (size_t k = 0; k < agents_.size(); ++k) {
        const size_t row = rowBegin_ + k;
        if (fleet.chargingBbus[row] == 0)
            continue;
        if (agents_[k]->holdCommanded())
            continue;  // postponed: drawing (or about to draw) nothing
        // A rack counts as throttled once the floor was commanded,
        // even if the actuation lag has not elapsed yet.
        Amperes commanded = agents_[k]->lastCommanded();
        Amperes effective = commanded.value() > 0.0
            ? commanded
            : Amperes(fleet.setpointA[row]);
        if (effective > floor_ + Amperes(1e-9))
            return false;
    }
    return true;
}

void
BreakerController::issue(const std::vector<OverrideCommand> &commands)
{
    // Flight-recorder gate, hoisted: one relaxed load per issue()
    // call instead of per command.
    const bool events_on = obs::eventLoggingEnabled();
    for (const OverrideCommand &cmd : commands) {
        // A rack outside the rows, a negative id included, wraps past
        // the end.
        const size_t k = static_cast<size_t>(cmd.rackId) - rowBegin_;
        if (k >= agents_.size()) {
            util::warn(util::strf("controller %s: override for unknown "
                                  "rack %d",
                                  node_->name().c_str(), cmd.rackId));
            continue;
        }
        RackAgent &agent = *agents_[k];
        const char *taken = nullptr;
        switch (cmd.kind) {
          case OverrideCommand::Kind::Hold:
            if (!agent.holdCommanded()) {
                agent.commandHold();
                DCBATT_COUNT("dynamo.cmd_hold");
                taken = "cmd_hold";
            }
            break;
          case OverrideCommand::Kind::Resume:
            if (agent.holdCommanded()) {
                agent.commandResume(cmd.current);
                DCBATT_COUNT("dynamo.cmd_resume");
                taken = "cmd_resume";
            }
            break;
          case OverrideCommand::Kind::SetCurrent: {
            Amperes before = agent.lastCommanded();
            agent.commandOverride(cmd.current);
            if (std::abs((agent.lastCommanded() - before).value())
                > 1e-12) {
                DCBATT_COUNT("dynamo.cmd_set_current");
                taken = "cmd_set_current";
            }
            break;
          }
        }
        if (!taken)
            continue;
        lastCommandTick_[k] = queue_->now();
        if (!events_on)
            continue;
        const double t = sim::toSeconds(queue_->now()).value();
        const double rack = static_cast<double>(cmd.rackId);
        if (cmd.kind == OverrideCommand::Kind::Hold) {
            obs::logEvent(t, taken, {{"rack", rack}});
        } else {
            // A resume commands its current as the override too.
            obs::logEvent(t, taken,
                          {{"rack", rack},
                           {"current_a", agent.lastCommanded().value()}});
        }
    }
}

void
BreakerController::tick()
{
    bool charging = anyCharging();

    if (charging && !eventActive_) {
        // A charging event begins: snapshot per-rack DOD (the paper's
        // leaf controllers estimate this from the open-transition
        // length and IT load; we read the shelf's measured value) and
        // let the coordinator plan initial currents against the
        // breaker's available power (limit minus IT load).
        eventActive_ = true;
        ++eventCount_;
        DCBATT_COUNT("dynamo.charging_event_starts");
        initialDod_.clear();
        initialDod_.reserve(agents_.size());
        for (const auto &agent : agents_)
            initialDod_.push_back(agent->rack().shelf().meanDod());
        if (coordinator_) {
            Watts available = limit() - measuredItLoad();
            issue(coordinator_->planInitial(snapshotRacks(), available));
        }
    } else if (!charging && eventActive_) {
        // Event over: clear overrides so the next event starts from
        // the local charger defaults.
        eventActive_ = false;
        initialDod_.clear();
        std::fill(lastCommandTick_.begin(), lastCommandTick_.end(), -1);
        for (const auto &agent : agents_)
            agent->clearOverride();
    }

    Watts measured = node_->inputPower();
    Watts headroom = limit() - measured;

    if (eventActive_ && coordinator_)
        issue(coordinator_->onTick(snapshotRacks(), headroom));

    const bool events_on = obs::eventLoggingEnabled();

    // --- capping: the last resort --------------------------------
    if (headroom.value() < 0.0) {
        if (overloadSince_ < 0) {
            overloadSince_ = queue_->now();
            floorTicks_ = 0;
            if (events_on) {
                obs::logEvent(
                    sim::toSeconds(overloadSince_).value(),
                    "overload_open",
                    {{"over_kw",
                      util::toKilowatts(-headroom)}},
                    {{"node", node_->name()}});
            }
        }
        bool coordinating = coordinator_ && coordinator_->managesCurrents();
        bool charge_relief_possible = charging
            && (!allChargingAtFloor() || overridesInFlight());
        // Charge-current relief gets one grace window from the start
        // of the overload episode; a coordinator issuing a fresh
        // command every tick must not defer capping forever while the
        // breaker heats toward its trip point.
        bool within_grace = queue_->now() - overloadSince_
            < sim::toTicks(config_.overrideGrace);
        if (coordinating && charge_relief_possible && within_grace) {
            // Give the charge-current reduction a chance to land.
        } else {
            DCBATT_COUNT("dynamo.cap_reductions");
            Watts applied = capping_.applyReduction(agents_, -headroom);
            if (events_on) {
                obs::logEvent(
                    sim::toSeconds(queue_->now()).value(),
                    "cap_reduction",
                    {{"needed_kw", util::toKilowatts(-headroom)},
                     {"applied_kw", util::toKilowatts(applied)}},
                    {{"node", node_->name()}});
            }
            // Once per overload episode, not on every tick of it.
            if (applied + Watts(1.0) < -headroom && floorTicks_++ == 0) {
                util::warn(util::strf(
                    "controller %s: capping floor reached, breaker "
                    "still %0.1f kW over limit",
                    node_->name().c_str(),
                    util::toKilowatts(-headroom - applied)));
            }
        }
    } else {
        if (overloadSince_ >= 0) {
            // End of an overload episode: record how long the breaker
            // sat above its limit, in *sim time* — deterministic by
            // construction, unlike a wall-clock latency (which belongs
            // in a trace span, not the registry).
            DCBATT_COUNT("dynamo.overload_episodes");
            static obs::Histogram &relief_hist = obs::histogram(
                "dynamo.overload_relief_latency_s",
                {1.0, 5.0, 15.0, 60.0, 300.0, 1800.0});
            double relief_s =
                sim::toSeconds(queue_->now() - overloadSince_)
                    .value();
            relief_hist.observe(relief_s);
            if (events_on) {
                obs::logEvent(
                    sim::toSeconds(queue_->now()).value(),
                    "overload_close",
                    {{"duration_s", relief_s},
                     {"floor_ticks", static_cast<double>(floorTicks_)}},
                    {{"node", node_->name()}});
            }
        }
        overloadSince_ = -1;
        Watts margin = limit() * config_.releaseMarginFraction;
        if (headroom > margin && totalCap().value() > 0.0) {
            DCBATT_COUNT("dynamo.cap_releases");
            Watts before_release = totalCap();
            capping_.release(agents_, headroom - margin);
            if (events_on) {
                obs::logEvent(
                    sim::toSeconds(queue_->now()).value(),
                    "cap_release",
                    {{"released_kw",
                      util::toKilowatts(before_release
                                        - totalCap())}},
                    {{"node", node_->name()}});
            }
        }
    }
    maxCapObserved_ = util::max(maxCapObserved_, totalCap());
}

ControlPlane::ControlPlane(power::Topology &topology,
                           PowerNode &coordination_node,
                           sim::EventQueue &queue,
                           ChargingCoordinator *coordinator,
                           ControllerConfig config)
    : topology_(&topology), queue_(&queue), config_(config),
      rowBegin_(coordination_node.rowBegin())
{
    // An agent for every rack under the coordination node, by row.
    std::span<power::Rack *const> racks = coordination_node.racksBelow();
    agents_.reserve(racks.size());
    for (power::Rack *rack : racks) {
        agents_.push_back(std::make_unique<RackAgent>(
            *rack, queue, config_.actuationLag));
    }
    buildControllers(coordination_node, coordinator);
    if (controllers_.empty())
        util::fatal("ControlPlane: coordination node has no breaker "
                    "anywhere below it");
}

void
ControlPlane::buildControllers(PowerNode &node,
                               ChargingCoordinator *coordinator)
{
    if (node.breaker()) {
        const size_t first = node.rowBegin() - rowBegin_;
        controllers_.push_back(std::make_unique<BreakerController>(
            node,
            AgentSpan(agents_).subspan(first,
                                       node.rowEnd() - node.rowBegin()),
            *queue_, coordinator, config_, *topology_));
        coordinator = nullptr;  // only the topmost breaker coordinates
    }
    for (PowerNode *child : node.children())
        buildControllers(*child, coordinator);
}

void
ControlPlane::start()
{
    if (!task_) {
        task_ = std::make_unique<sim::PeriodicTask>(
            *queue_, sim::toTicks(config_.tickPeriod),
            [this](sim::Tick) { tickAll(); });
    }
    task_->start();
}

void
ControlPlane::stop()
{
    if (task_)
        task_->stop();
}

void
ControlPlane::tickAll()
{
    // One count per control-plane tick, not per controller — keeps the
    // registry visit off the per-breaker path.
    DCBATT_COUNT("dynamo.control_ticks");
    topology_->refreshTouchedRows();
    for (auto &controller : controllers_)
        controller->tick();
}

RackAgent &
ControlPlane::agentFor(int rack_id)
{
    return *agents_.at(static_cast<size_t>(rack_id) - rowBegin_);
}

Watts
ControlPlane::totalCap() const
{
    const double *cap_w = topology_->fleet().capW.data() + rowBegin_;
    Watts total(0.0);
    for (size_t k = 0; k < agents_.size(); ++k)
        total += Watts(cap_w[k]);
    return total;
}

} // namespace dcbatt::dynamo

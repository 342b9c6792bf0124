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

BreakerController::BreakerController(PowerNode &node,
                                     std::vector<RackAgent *> agents,
                                     sim::EventQueue &queue,
                                     ChargingCoordinator *coordinator,
                                     ControllerConfig config,
                                     const power::Topology &topology)
    : node_(&node), topology_(&topology), agents_(std::move(agents)),
      queue_(&queue), coordinator_(coordinator), config_(config)
{
    DCBATT_REQUIRE(node_->breaker() != nullptr,
                   "node %s has no breaker", node_->name().c_str());
    DCBATT_REQUIRE(std::is_sorted(agents_.begin(), agents_.end(),
                                  [](const RackAgent *a,
                                     const RackAgent *b) {
                                      return a->rackId() < b->rackId();
                                  }),
                   "controller %s: agents not in rack-id order",
                   node_->name().c_str());
    for (RackAgent *agent : agents_)
        agentById_[agent->rackId()] = agent;
}

Watts
BreakerController::limit() const
{
    return util::min(node_->breaker()->limit(), limitCeiling_);
}

Watts
BreakerController::measuredItLoad() const
{
    Watts total(0.0);
    for (const RackAgent *agent : agents_)
        total += agent->readItLoad();
    return total;
}

bool
BreakerController::anyCharging() const
{
    if (topology_->quiet())
        return false;
    return std::any_of(agents_.begin(), agents_.end(),
                       [](const RackAgent *a) { return a->charging(); });
}

const std::vector<RackChargeInfo> &
BreakerController::snapshotRacks() const
{
    snapshotBuf_.clear();
    snapshotBuf_.reserve(agents_.size());
    for (size_t i = 0; i < agents_.size(); ++i) {
        const RackAgent *agent = agents_[i];
        RackChargeInfo &info = snapshotBuf_.emplace_back();
        info.rackId = agent->rackId();
        info.priority = agent->rack().priority();
        info.initialDod = i < initialDod_.size() ? initialDod_[i] : 0.0;
        info.setpoint = agent->readSetpoint();
        info.rechargePower = agent->readRechargePower();
        info.itLoad = agent->readItLoad();
        info.capAmount = agent->rack().capAmount();
        info.charging = agent->charging();
        info.held = agent->holdCommanded();
    }
    return snapshotBuf_;
}

bool
BreakerController::overridesInFlight() const
{
    sim::Tick grace = sim::toTicks(config_.overrideGrace);
    sim::Tick now = queue_->now();
    for (const auto &[rack_id, when] : lastCommandTick_) {
        if (now - when < grace)
            return true;
    }
    return false;
}

bool
BreakerController::allChargingAtFloor() const
{
    for (const RackAgent *agent : agents_) {
        if (!agent->charging())
            continue;
        if (agent->holdCommanded())
            continue;  // postponed: drawing (or about to draw) nothing
        Amperes floor = agent->rack().shelf().params().minCurrent;
        // A rack counts as throttled once the floor was commanded,
        // even if the actuation lag has not elapsed yet.
        Amperes commanded = agent->lastCommanded();
        Amperes effective = commanded.value() > 0.0
            ? commanded
            : agent->readSetpoint();
        if (effective > floor + Amperes(1e-9))
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
    auto sim_now = [this] {
        return sim::toSeconds(queue_->now()).value();
    };
    for (const OverrideCommand &cmd : commands) {
        auto it = agentById_.find(cmd.rackId);
        if (it == agentById_.end()) {
            util::warn(util::strf("controller %s: override for unknown "
                                  "rack %d",
                                  node_->name().c_str(), cmd.rackId));
            continue;
        }
        RackAgent *agent = it->second;
        switch (cmd.kind) {
          case OverrideCommand::Kind::Hold:
            if (!agent->holdCommanded()) {
                agent->commandHold();
                lastCommandTick_[cmd.rackId] = queue_->now();
                DCBATT_COUNT("dynamo.cmd_hold");
                if (events_on) {
                    obs::logEvent(
                        sim_now(), "cmd_hold",
                        {{"rack",
                          static_cast<double>(cmd.rackId)}});
                }
            }
            break;
          case OverrideCommand::Kind::Resume:
            if (agent->holdCommanded()) {
                agent->commandResume(cmd.current);
                lastCommandTick_[cmd.rackId] = queue_->now();
                DCBATT_COUNT("dynamo.cmd_resume");
                if (events_on) {
                    obs::logEvent(
                        sim_now(), "cmd_resume",
                        {{"rack",
                          static_cast<double>(cmd.rackId)},
                         {"current_a", cmd.current.value()}});
                }
            }
            break;
          case OverrideCommand::Kind::SetCurrent: {
            Amperes before = agent->lastCommanded();
            agent->commandOverride(cmd.current);
            if (std::abs((agent->lastCommanded() - before).value())
                > 1e-12) {
                lastCommandTick_[cmd.rackId] = queue_->now();
                DCBATT_COUNT("dynamo.cmd_set_current");
                if (events_on) {
                    obs::logEvent(
                        sim_now(), "cmd_set_current",
                        {{"rack",
                          static_cast<double>(cmd.rackId)},
                         {"current_a",
                          agent->lastCommanded().value()}});
                }
            }
            break;
          }
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
        for (const RackAgent *agent : agents_)
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
        lastCommandTick_.clear();
        for (RackAgent *agent : agents_)
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
            if (applied + Watts(1.0) < -headroom) {
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
                    {{"duration_s", relief_s}},
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
    : queue_(&queue), config_(config)
{
    // Agents for every rack under the coordination node.
    for (power::Rack *rack : coordination_node.racksBelow()) {
        agents_.push_back(std::make_unique<RackAgent>(
            *rack, queue, config_.actuationLag));
        agentById_[rack->id()] = agents_.back().get();
    }
    buildControllers(topology, coordination_node, coordinator);
    if (controllers_.empty())
        util::fatal("ControlPlane: coordination node has no breaker "
                    "anywhere below it");
}

void
ControlPlane::buildControllers(const power::Topology &topology,
                               PowerNode &node,
                               ChargingCoordinator *coordinator)
{
    if (node.breaker()) {
        std::vector<RackAgent *> scoped;
        for (power::Rack *rack : node.racksBelow())
            scoped.push_back(agentById_.at(rack->id()));
        controllers_.push_back(std::make_unique<BreakerController>(
            node, std::move(scoped), *queue_, coordinator, config_,
            topology));
        coordinator = nullptr;  // only the topmost breaker coordinates
    }
    for (PowerNode *child : node.children())
        buildControllers(topology, *child, coordinator);
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
    for (auto &controller : controllers_)
        controller->tick();
}

RackAgent &
ControlPlane::agentFor(int rack_id)
{
    return *agentById_.at(rack_id);
}

Watts
ControlPlane::totalCap() const
{
    Watts total(0.0);
    for (const auto &agent : agents_)
        total += agent->rack().capAmount();
    return total;
}

} // namespace dcbatt::dynamo

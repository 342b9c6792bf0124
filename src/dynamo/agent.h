/**
 * @file
 * Dynamo rack agent.
 *
 * The paper adds a new Dynamo agent type that runs on each rack's
 * top-of-rack switch: it reads rack input power, IT load, and BBU
 * charge/discharge power from the PSUs, and can issue a manual
 * override of the BBU charging current (1-5 A). In dcbatt the
 * controllers read those quantities from the topology's fleet columns
 * (battery::FleetState) by rack row, so the agent only actuates and
 * remembers what it commanded: controllers decide, agents apply
 * overrides, holds and caps.
 *
 * Actuation is not instantaneous: the prototype measurement in Fig. 11
 * shows the BBU power stabilizing about 20 seconds after the override
 * command is issued. RackAgent models that latency by scheduling the
 * shelf override on the event queue.
 */

#ifndef DCBATT_DYNAMO_AGENT_H_
#define DCBATT_DYNAMO_AGENT_H_

#include <memory>
#include <span>

#include "power/rack.h"
#include "sim/event_queue.h"
#include "util/units.h"

namespace dcbatt::dynamo {

/** Per-rack Dynamo agent (runs on the TOR switch). */
class RackAgent
{
  public:
    /**
     * @param rack the rack this agent manages (not owned).
     * @param queue event queue used to model actuation latency.
     * @param actuation_lag delay between override command and effect.
     */
    RackAgent(power::Rack &rack, sim::EventQueue &queue,
              util::Seconds actuation_lag = util::Seconds(20.0));

    int rackId() const { return rack_->id(); }
    power::Rack &rack() { return *rack_; }
    const power::Rack &rack() const { return *rack_; }

    /**
     * Command a charging-current override. The shelf setpoint changes
     * after the actuation lag. Duplicate commands (same current as the
     * last one issued) are suppressed.
     */
    void commandOverride(util::Amperes current);

    /**
     * Command a charging hold / resume (postponed charging). Subject
     * to the same actuation lag as current overrides; duplicate
     * commands are suppressed. Resume applies @p current as the
     * override so the released rack draws exactly what the
     * coordinator budgeted for it (not its local-charger default).
     */
    void commandHold();
    void commandResume(util::Amperes current);
    bool holdCommanded() const { return holdCommanded_; }

    /** Clear the override (immediately; used between experiments). */
    void clearOverride();

    /** Last override current commanded (0 if none). */
    util::Amperes lastCommanded() const { return lastCommanded_; }

    /** Set/adjust a server power cap (takes effect immediately). */
    void commandCap(util::Watts amount) { rack_->setCapAmount(amount); }
    void commandUncap() { rack_->uncap(); }

  private:
    power::Rack *rack_;
    sim::EventQueue *queue_;
    util::Seconds actuationLag_;
    util::Amperes lastCommanded_{0.0};
    bool holdCommanded_ = false;
};

/** Agents in rack-row order, as a control plane holds them. */
using AgentSpan = std::span<const std::unique_ptr<RackAgent>>;

} // namespace dcbatt::dynamo

#endif // DCBATT_DYNAMO_AGENT_H_

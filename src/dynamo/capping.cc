#include "dynamo/capping.h"

#include <algorithm>

#include "power/priority.h"
#include "util/check.h"

namespace dcbatt::dynamo {

using power::Priority;
using util::Watts;

void
CappingEngine::bind(AgentSpan agents)
{
    if (ledger_.empty())
        ledger_.assign(agents.size(), 0.0);
    DCBATT_REQUIRE(ledger_.size() == agents.size(),
                   "capping ledger holds %zu racks, handed %zu",
                   ledger_.size(), agents.size());
}

void
CappingEngine::refold()
{
    double total = 0.0;
    for (double watts : ledger_)
        total += watts;
    total_ = total;
}

Watts
CappingEngine::applyReduction(AgentSpan agents, Watts reduction)
{
    Watts applied(0.0);
    if (reduction.value() <= 0.0)
        return applied;
    bind(agents);
    // Work class by class from P3 down to P1, shaving proportionally
    // to each rack's remaining cappable load within the class.
    for (int pri = 2; pri >= 0 && applied < reduction; --pri) {
        std::vector<size_t> members;
        Watts cappable(0.0);
        for (size_t i = 0; i < agents.size(); ++i) {
            const power::Rack &rack = agents[i]->rack();
            if (power::priorityIndex(rack.priority()) != pri)
                continue;
            Watts demand = rack.itDemand();
            Watts floor = demand * (1.0 - maxCapFraction_);
            Watts room = rack.itLoad() - floor;
            if (room.value() > 0.0) {
                members.push_back(i);
                cappable += room;
            }
        }
        if (members.empty() || cappable.value() <= 0.0)
            continue;
        Watts want = util::min(reduction - applied, cappable);
        for (size_t i : members) {
            RackAgent *agent = agents[i].get();
            Watts demand = agent->rack().itDemand();
            Watts floor = demand * (1.0 - maxCapFraction_);
            Watts room = agent->rack().itLoad() - floor;
            Watts share = want * (room / cappable);
            DCBATT_ASSERT(share.value() >= 0.0,
                          "negative cap share %g W for rack %d",
                          share.value(), agent->rackId());
            Watts new_cap = agent->rack().capAmount() + share;
            agent->commandCap(new_cap);
            ledger_[i] += share.value();
            applied += share;
        }
    }
    DCBATT_ASSERT(applied <= reduction + Watts(1e-6),
                  "capped %.6f W, more than the %.6f W asked for",
                  applied.value(), reduction.value());
    refold();
    return applied;
}

Watts
CappingEngine::release(AgentSpan agents, Watts headroom)
{
    Watts released(0.0);
    if (headroom.value() <= 0.0)
        return released;
    bind(agents);
    for (int pri = 0; pri <= 2 && released < headroom; ++pri) {
        for (size_t i = 0; i < agents.size(); ++i) {
            RackAgent *agent = agents[i].get();
            if (power::priorityIndex(agent->rack().priority()) != pri)
                continue;
            double &held = ledger_[i];
            if (held <= 0.0)
                continue;
            Watts cap = agent->rack().capAmount();
            Watts give = util::min(util::min(cap, Watts(held)),
                                   headroom - released);
            if (give.value() <= 0.0)
                continue;
            agent->commandCap(cap - give);
            held -= give.value();
            released += give;
            if (released >= headroom)
                break;
        }
    }
    refold();
    return released;
}

void
CappingEngine::releaseAll(AgentSpan agents)
{
    bind(agents);
    for (size_t i = 0; i < agents.size(); ++i) {
        if (ledger_[i] <= 0.0)
            continue;
        RackAgent *agent = agents[i].get();
        Watts cap = agent->rack().capAmount();
        agent->commandCap(cap - util::min(cap, Watts(ledger_[i])));
    }
    std::fill(ledger_.begin(), ledger_.end(), 0.0);
    total_ = 0.0;
}

} // namespace dcbatt::dynamo

#include "power/topology.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace dcbatt::power {

using util::Seconds;
using util::Watts;

const char *
toString(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Site:
        return "site";
      case NodeKind::Building:
        return "building";
      case NodeKind::Suite:
        return "suite";
      case NodeKind::Msb:
        return "msb";
      case NodeKind::Sb:
        return "sb";
      case NodeKind::Rpp:
        return "rpp";
      case NodeKind::RackNode:
        return "rack";
    }
    return "?";
}

double
PowerTree::leafPower(size_t row) const
{
    if (*touched_)
        return racks_[row]->inputPower().value();
    const battery::FleetState &fleet = *fleet_;
    return fleet.inputOn[row] ? fleet.itLoadW[row] + fleet.rechargeW[row]
                              : 0.0;
}

void
PowerTree::invalidateAll()
{
    std::fill(valid_.begin(), valid_.end(), 0);
    allStale_ = true;
}

void
PowerTree::refreshAll()
{
    // leafPower() of an untouched fleet, then the inner nodes in
    // refresh()'s order and child order: the same doubles.
    const battery::FleetState &fleet = *fleet_;
    const size_t rows = leafOfRow_.size();
    for (size_t r = 0; r < rows; ++r) {
        powerW_[static_cast<size_t>(leafOfRow_[r])] = fleet.inputOn[r]
            ? fleet.itLoadW[r] + fleet.rechargeW[r]
            : 0.0;
    }
    for (int32_t node : innerBottomUp_) {
        auto i = static_cast<size_t>(node);
        double total = 0.0;
        for (int32_t k = childBegin_[i]; k < childBegin_[i + 1]; ++k)
            total += powerW_[static_cast<size_t>(
                childIndex_[static_cast<size_t>(k)])];
        powerW_[i] = total;
    }
    std::fill(valid_.begin(), valid_.end(), 1);
}

void
PowerTree::refresh()
{
    if (valid_[0])
        return;
    const bool all_stale = allStale_;
    allStale_ = false;
    if (all_stale && !*touched_) {
        refreshAll();
        return;
    }
    // Reverse creation order visits children before their parents.
    for (size_t i = powerW_.size(); i-- > 0;) {
        if (valid_[i])
            continue;
        double total = 0.0;
        if (row_[i] >= 0) {
            total = leafPower(static_cast<size_t>(row_[i]));
        } else {
            for (int32_t k = childBegin_[i]; k < childBegin_[i + 1]; ++k) {
                auto c = static_cast<size_t>(
                    childIndex_[static_cast<size_t>(k)]);
                DCBATT_ASSERT(valid_[c],
                              "stale child %zu under %zu in bottom-up "
                              "refresh", c, i);
                total += powerW_[c];
            }
        }
        powerW_[i] = total;
        valid_[i] = 1;
    }
}

PowerNode::PowerNode(std::string name, NodeKind kind, PowerTree &tree,
                     int32_t index)
    : name_(std::move(name)), kind_(kind), tree_(&tree), index_(index)
{
}

void
PowerNode::addChild(PowerNode *child)
{
    DCBATT_REQUIRE(child != nullptr, "null child under node %s",
                   name_.c_str());
    children_.push_back(child);
}

void
PowerNode::attachBreaker(std::unique_ptr<CircuitBreaker> breaker)
{
    breaker_ = std::move(breaker);
}

void
PowerNode::attachRack(Rack *rack)
{
    DCBATT_REQUIRE(kind_ == NodeKind::RackNode,
                   "cannot attach a rack to %s node %s",
                   toString(kind_), name_.c_str());
    rack_ = rack;
}

std::vector<Priority>
makePriorityMix(int p1, int p2, int p3)
{
    // Largest-remainder proportional interleave: walk an accumulator
    // per class and always emit the class that is most "behind". This
    // spreads every priority evenly through the rack order without
    // randomness.
    int total = p1 + p2 + p3;
    std::vector<Priority> out;
    out.reserve(static_cast<size_t>(total));
    std::array<int, 3> want{p1, p2, p3};
    std::array<double, 3> credit{0.0, 0.0, 0.0};
    std::array<int, 3> emitted{0, 0, 0};
    for (int i = 0; i < total; ++i) {
        int best = -1;
        double best_credit = -1.0;
        for (int c = 0; c < 3; ++c) {
            if (emitted[c] >= want[c])
                continue;
            credit[c] += static_cast<double>(want[c]) / total;
            if (credit[c] > best_credit) {
                best_credit = credit[c];
                best = c;
            }
        }
        if (best < 0)
            break;
        credit[best] -= 1.0;
        ++emitted[best];
        out.push_back(static_cast<Priority>(best));
    }
    return out;
}

PowerNode *
Topology::newNode(std::string name, NodeKind kind)
{
    nodes_.push_back(std::make_unique<PowerNode>(
        std::move(name), kind, *tree_,
        static_cast<int32_t>(nodes_.size())));
    return nodes_.back().get();
}

Topology
Topology::build(const TopologySpec &spec,
                std::shared_ptr<const battery::ChargerPolicy> policy)
{
    if (!policy)
        util::fatal("Topology::build: null charger policy");
    Topology topo;
    topo.activity_ = std::make_unique<StepActivity>();
    topo.tree_ = std::make_unique<PowerTree>();
    int rack_budget = spec.totalRacks;
    int next_rack_id = 0;

    auto priority_for = [&spec](int rack_id) {
        if (spec.priorities.empty())
            return Priority::P2;
        return spec.priorities[static_cast<size_t>(rack_id)
                               % spec.priorities.size()];
    };

    // Recursive lambdas via explicit structure: build each level.
    auto build_rack = [&](PowerNode &rpp, const std::string &name) {
        if (rack_budget == 0)
            return;
        if (rack_budget > 0)
            --rack_budget;
        int id = next_rack_id++;
        topo.racks_.push_back(std::make_unique<Rack>(
            id, name, priority_for(id), policy, spec.bbuParams));
        Rack *rack = topo.racks_.back().get();
        topo.tree_->racks_.push_back(rack);
        PowerNode *leaf = topo.newNode(name, NodeKind::RackNode);
        leaf->attachRack(rack);
        rack->shelf().shareSkippedSteps(&topo.activity_->skippedSteps);
        rpp.addChild(leaf);
    };

    auto build_rpp = [&](PowerNode &sb, const std::string &name) {
        PowerNode *rpp = topo.newNode(name, NodeKind::Rpp);
        rpp->attachBreaker(std::make_unique<CircuitBreaker>(
            name, spec.rppLimit));
        sb.addChild(rpp);
        for (int r = 0; r < spec.racksPerRpp; ++r)
            build_rack(*rpp, util::strf("%s.rack%02d", name.c_str(), r));
        return rpp;
    };

    auto build_sb = [&](PowerNode &msb, const std::string &name) {
        PowerNode *sb = topo.newNode(name, NodeKind::Sb);
        sb->attachBreaker(std::make_unique<CircuitBreaker>(
            name, spec.sbLimit));
        msb.addChild(sb);
        for (int r = 0; r < spec.rppsPerSb; ++r)
            build_rpp(*sb, util::strf("%s.rpp%d", name.c_str(), r));
        return sb;
    };

    auto build_msb = [&](PowerNode *parent, const std::string &name) {
        PowerNode *msb = topo.newNode(name, NodeKind::Msb);
        msb->attachBreaker(std::make_unique<CircuitBreaker>(
            name, spec.msbLimit));
        if (parent)
            parent->addChild(msb);
        for (int s = 0; s < spec.sbsPerMsb; ++s)
            build_sb(*msb, util::strf("%s.sb%d", name.c_str(), s));
        return msb;
    };

    auto build_suite = [&](PowerNode *parent, const std::string &name) {
        PowerNode *suite = topo.newNode(name, NodeKind::Suite);
        if (parent)
            parent->addChild(suite);
        for (int m = 0; m < spec.msbsPerSuite; ++m)
            build_msb(suite, util::strf("%s.msb%d", name.c_str(), m));
        return suite;
    };

    auto build_building = [&](PowerNode *parent,
                              const std::string &name) {
        PowerNode *bld = topo.newNode(name, NodeKind::Building);
        if (parent)
            parent->addChild(bld);
        for (int s = 0; s < spec.suitesPerBuilding; ++s)
            build_suite(bld, util::strf("%s.suite%d", name.c_str(), s));
        return bld;
    };

    switch (spec.rootKind) {
      case NodeKind::Site: {
        PowerNode *site = topo.newNode(spec.rootName, NodeKind::Site);
        for (int b = 0; b < spec.buildingsPerSite; ++b) {
            build_building(site, util::strf("%s.bld%d",
                                            spec.rootName.c_str(), b));
        }
        topo.root_ = site;
        break;
      }
      case NodeKind::Building:
        topo.root_ = build_building(nullptr, spec.rootName);
        break;
      case NodeKind::Suite:
        topo.root_ = build_suite(nullptr, spec.rootName);
        break;
      case NodeKind::Msb:
        topo.root_ = build_msb(nullptr, spec.rootName);
        break;
      case NodeKind::Sb: {
        PowerNode *sb = topo.newNode(spec.rootName, NodeKind::Sb);
        sb->attachBreaker(std::make_unique<CircuitBreaker>(
            spec.rootName, spec.sbLimit));
        for (int r = 0; r < spec.rppsPerSb; ++r) {
            build_rpp(*sb, util::strf("%s.rpp%d",
                                      spec.rootName.c_str(), r));
        }
        topo.root_ = sb;
        break;
      }
      case NodeKind::Rpp: {
        PowerNode *rpp = topo.newNode(spec.rootName, NodeKind::Rpp);
        rpp->attachBreaker(std::make_unique<CircuitBreaker>(
            spec.rootName, spec.rppLimit));
        for (int r = 0; r < spec.racksPerRpp; ++r) {
            build_rack(*rpp, util::strf("%s.rack%02d",
                                        spec.rootName.c_str(), r));
        }
        topo.root_ = rpp;
        break;
      }
      case NodeKind::RackNode:
        util::fatal("Topology::build: cannot root a topology at a rack");
    }
    const std::vector<Rack *> &racks = topo.tree_->racks_;
    if (racks.empty())
        util::fatal("Topology::build: topology has no racks");
    DCBATT_REQUIRE(topo.root_ == topo.nodes_.front().get(),
                   "root %s is not the first node", spec.rootName.c_str());
    topo.fleet_ = std::make_unique<battery::FleetState>();
    topo.fleet_->resize(racks.size());
    topo.lanes_ = std::make_unique<battery::ChargeLanes>(*topo.fleet_,
                                                         spec.bbuParams);

    // Lay the tree out flat, in creation order.
    PowerTree &tree = *topo.tree_;
    const size_t n = topo.nodes_.size();
    tree.powerW_.assign(n, 0.0);
    tree.valid_.assign(n, 0);
    tree.parent_.assign(n, -1);
    tree.row_.assign(n, -1);
    tree.leafOfRow_.assign(racks.size(), -1);
    tree.childBegin_.reserve(n + 1);
    tree.fleet_ = topo.fleet_.get();
    tree.touched_ = &topo.activity_->touched;
    // Creation order is a depth-first preorder and rack ids count its
    // leaves, so a node's rows start at the racks created before it.
    size_t rows = 0;
    for (const auto &node : topo.nodes_) {
        auto i = static_cast<size_t>(node->index_);
        node->rowBegin_ = node->rowEnd_ = rows;
        tree.childBegin_.push_back(
            static_cast<int32_t>(tree.childIndex_.size()));
        for (const PowerNode *child : node->children_) {
            auto c = static_cast<size_t>(child->index_);
            DCBATT_REQUIRE(tree.parent_[c] < 0, "node %s has two parents",
                           child->name_.c_str());
            tree.childIndex_.push_back(child->index_);
            tree.parent_[c] = node->index_;
        }
        if (Rack *rack = node->rack_) {
            tree.row_[i] = rack->id();
            node->rowEnd_ = ++rows;
            tree.leafOfRow_[static_cast<size_t>(rack->id())] =
                node->index_;
            rack->attach(*topo.fleet_, tree, node->index_,
                         &topo.activity_->touched);
            rack->shelf().attachLanes(*topo.lanes_,
                                      static_cast<size_t>(rack->id()));
        } else {
            tree.innerBottomUp_.push_back(node->index_);
        }
        if (node->breaker())
            topo.breakers_.push_back({node->index_, node->breaker()});
    }
    tree.childBegin_.push_back(
        static_cast<int32_t>(tree.childIndex_.size()));
    std::reverse(tree.innerBottomUp_.begin(), tree.innerBottomUp_.end());
    // An inner node's rows end where its children, which tile them,
    // end.
    for (int32_t i : tree.innerBottomUp_) {
        PowerNode &node = *topo.nodes_[static_cast<size_t>(i)];
        for (const PowerNode *child : node.children_) {
            DCBATT_REQUIRE(child->rowBegin_ == node.rowEnd_,
                           "node %s: rows not contiguous at %s",
                           node.name_.c_str(), child->name_.c_str());
            node.rowEnd_ = child->rowEnd_;
        }
    }
    return topo;
}

std::vector<PowerNode *>
Topology::nodesOfKind(NodeKind kind) const
{
    std::vector<PowerNode *> result;
    for (const auto &node : nodes_) {
        if (node->kind() == kind)
            result.push_back(node.get());
    }
    return result;
}

void
Topology::applyDemandRow(const double *row)
{
    battery::FleetState &fleet = *fleet_;
    bool changed = false;
    for (size_t i = 0; i < fleet.size(); ++i) {
        const double demand = row[i];
        if (demand == fleet.itDemandW[i])
            continue;
        changed = true;
        fleet.itDemandW[i] = demand;
        fleet.itLoadW[i] =
            cappedItLoad(Watts(demand), Watts(fleet.capW[i])).value();
    }
    if (!changed)
        return;
    tree_->invalidateAll();
    totalsStale_ = true;
}

void
Topology::stepRacks(Seconds dt, bool batching)
{
    battery::FleetState &fleet = *fleet_;
    const std::vector<Rack *> &racks = tree_->racks_;
    DCBATT_ASSERT(fleet.size() == racks.size(),
                  "fleet rows %zu != racks %zu", fleet.size(),
                  racks.size());
    refreshedRows_.clear();
    // A quiet fleet (every rack quiescent at the last step, none
    // touched since) is the steady state outside a charging event:
    // each rack's step would be tryQuiescentStep() alone and no row
    // would change, so count the step and leave the rows be. Only a
    // demand row stored since the last fold moves the totals.
    if (quiet() && dt.value() > 0.0) {
        ++activity_->skippedSteps;
        if (totalsStale_)
            foldStepTotals();
        return;
    }
    // Phase 1: re-check every resident lane's gate for this dt; the
    // failures are evicted and step through the objects below. With
    // batching off (or a step of dt <= 0, which moves no lane) no lane
    // stays resident.
    battery::ChargeLanes &lanes = *lanes_;
    batching = batching && dt.value() > 0.0;
    if (batching)
        lanes.beginStep(dt.value());
    else
        lanes.evictAll();
    // Phase 2: visit the racks in id order. A resident lane is the
    // table's to step; a touch since the last step can only have been
    // a demand or cap write (anything else evicts), which moves the
    // row's IT load alone. Every other rack whose step is a lockstep
    // integration over one interior CC/CV segment is admitted; the
    // rest step in place. Racks are independent within a step, so
    // stepping the lanes after the stragglers changes nothing.
    //
    // A quiescent rack (input on, nothing charging) is the common case
    // outside a charging event: Rack::step() would only bump the
    // shelf's step counter, so its row still holds the post-step state
    // unless something touched the rack since the row was refreshed.
    // Racks with input off always refresh: discharge steps change the
    // shelf without touching the rack.
    walkRows_.clear();
    uint8_t *touched = fleet.powerTouched.data();
    bool active = false;
    for (size_t i = 0; i < racks.size(); ++i) {
        if (lanes.resident(i)) {
            refreshedRows_.push_back(i);
            if (touched[i]) {
                fleet.itLoadW[i] = cappedItLoad(Watts(fleet.itDemandW[i]),
                                                Watts(fleet.capW[i]))
                                       .value();
                touched[i] = 0;
            }
            continue;
        }
        Rack *rack = racks[i];
        if (rack->shelf().tryQuiescentStep(dt)) {
            if (touched[i]) {
                refreshedRows_.push_back(i);
                walkRows_.push_back(i);
            }
            continue;
        }
        active = true;
        refreshedRows_.push_back(i);
        walkRows_.push_back(i);
        if (!batching || !lanes.tryAdmit(rack->shelf(), i, dt.value()))
            rack->step(dt);
    }
    // Phase 3: one sweep advances every lane in its columns and writes
    // `rechargeW` of its row (the lane owns the pack and shelf state);
    // the tree above them goes stale as a whole.
    if (lanes.size() != 0) {
        active = true;
        DCBATT_COUNT_N("battery.batch_lanes", lanes.size());
        lanes.finishStep(dt.value());
        tree_->invalidateAll();
    }
    // Phase 4: read the other refreshed rows back from the racks. A
    // lane's row needs this only on the step it is admitted: its other
    // columns do not move while it is resident.
    for (size_t i : walkRows_) {
        writeBackRow(i);
        racks[i]->clearPowerTouched();
    }
    // Every rack flag is clear now; the steps above re-raised the
    // fleet flag for the racks they moved, which `active` covers.
    activity_->touched = false;
    activity_->active = active;
    // The totals are a pure function of the rows: with no row
    // refreshed and no demand row stored they are the last step's,
    // bit for bit.
    if (!refreshedRows_.empty() || totalsStale_)
        foldStepTotals();
}

void
Topology::writeBackRow(size_t row)
{
    battery::FleetState &fleet = *fleet_;
    const Rack &r = *tree_->racks_[row];
    fleet.itLoadW[row] = r.itLoad().value();
    fleet.rechargeW[row] = r.rechargePower().value();
    fleet.inputOn[row] = r.inputPowerOn() ? 1 : 0;
    fleet.held[row] = r.shelf().chargingHeld() ? 1 : 0;
    fleet.fullyCharged[row] = r.shelf().fullyCharged() ? 1 : 0;
    fleet.chargingBbus[row] = r.shelf().chargingCount();
    fleet.cvBbus[row] = r.shelf().cvCount();
    fleet.setpointA[row] = r.shelf().chargeSetpoint().value();
}

void
Topology::refreshTouchedRows()
{
    if (!activity_->touched)
        return;
    const uint8_t *touched = fleet_->powerTouched.data();
    for (size_t i = 0; i < fleet_->size(); ++i) {
        if (touched[i])
            writeBackRow(i);
    }
}

void
Topology::foldStepTotals()
{
    // In row order — bit-identical to the per-step walk the consumers
    // (charging_event_sim's sampler) used to run themselves.
    const battery::FleetState &fleet = *fleet_;
    StepPowerTotals totals;
    const size_t n = fleet.size();
    for (size_t i = 0; i < n; ++i) {
        if (fleet.inputOn[i])
            totals.itW += fleet.itLoadW[i];
        totals.rechargeW += fleet.rechargeW[i];
        totals.capW += fleet.capW[i];
    }
    stepTotals_ = totals;
    totalsStale_ = false;
}

void
Topology::observeBreakers(Seconds dt)
{
    // Refresh every stale node first; the observe pass then reads
    // cache hits only.
    tree_->refresh();
    for (const BreakerRef &b : breakers_)
        b.breaker->observe(Watts(tree_->power(b.node)), dt);
}

void
Topology::startOpenTransition(PowerNode &node)
{
    for (Rack *rack : node.racksBelow())
        rack->loseInputPower();
}

void
Topology::endOpenTransition(PowerNode &node)
{
    for (Rack *rack : node.racksBelow())
        rack->restoreInputPower();
}

void
Topology::scheduleOpenTransition(sim::EventQueue &queue, PowerNode &node,
                                 sim::Tick at, sim::Tick duration)
{
    PowerNode *target = &node;
    queue.schedule(at, [target] { startOpenTransition(*target); });
    queue.schedule(at + duration,
                   [target] { endOpenTransition(*target); });
}

Seconds
openTransitionLength(const battery::BbuParams &params,
                     double target_mean_dod, Watts mean_rack_power,
                     std::optional<Seconds> explicit_length)
{
    if (explicit_length)
        return *explicit_length;
    util::Joules rack_energy = params.fullDischargeEnergy
        * static_cast<double>(params.bbusPerRack);
    return rack_energy * target_mean_dod / mean_rack_power;
}

} // namespace dcbatt::power

#include "battery/charge_lanes.h"

#include <algorithm>
#include <initializer_list>

#include "battery/bbu.h"
#include "battery/power_shelf.h"
#include "util/check.h"

namespace dcbatt::battery {

ChargeLanes::ChargeLanes(FleetState &fleet, const BbuParams &params)
    : fleet_(&fleet), kind_(fleet.size(), Kind::None),
      slot_(fleet.size(), 0), gates_(params), kernel_(params)
{
}

void
ChargeLanes::materialize(std::size_t row)
{
    if (!resident(row))
        return;
    const std::size_t k = slot_[row];
    Lane &lane = kind_[row] == Kind::Cc ? cc_[k] : cv_[k];
    if (lane.syncedAt == steps_)
        return;
    ++materializations_;
    lane.shelf->stepStats_.lockstepSteps += steps_ - lane.syncedAt;
    lane.syncedAt = steps_;
    // Every healthy pack moved as the lane did. Interior steps move
    // only these; a CC lane's current stays at the setpoint.
    PowerShelf &shelf = *lane.shelf;
    const bool cc = kind_[row] == Kind::Cc;
    for (std::size_t i = 0; i < shelf.bbus_.size(); ++i) {
        if (!shelf.healthy_[i])
            continue;
        BbuModel &pack = shelf.bbus_[i];
        if (cc) {
            pack.dod_ = cols_.ccDod[k];
            pack.cachedInputW_ = cols_.ccInputW[k];
            continue;
        }
        pack.dod_ = cols_.cvDod[k];
        pack.cvElapsed_ = util::Seconds(cols_.cvElapsedS[k]);
        pack.cachedCurrentA_ = cols_.cvCurrentA[k];
        pack.cachedInputW_ = cols_.cvInputW[k];
    }
}

void
ChargeLanes::evict(std::size_t row)
{
    if (!resident(row))
        return;
    materialize(row);
    // The continuous aggregates were the lane's: re-fold at next read.
    at(row, cc_, cv_).shelf->aggValid_ = false;
    // Swap-remove: a lane's place in its set is not observable.
    auto remove = [this](std::vector<Lane> &lanes, std::size_t k,
                         std::initializer_list<std::vector<double> *> cols) {
        lanes[k] = lanes.back();
        slot_[lanes[k].row] = static_cast<std::uint32_t>(k);
        lanes.pop_back();
        for (std::vector<double> *col : cols) {
            (*col)[k] = col->back();
            col->pop_back();
        }
    };
    if (kind_[row] == Kind::Cc) {
        remove(cc_, slot_[row],
               {&cols_.ccDod, &cols_.ccSetpointA, &cols_.ccInputW});
    } else {
        remove(cv_, slot_[row],
               {&cols_.cvDod, &cols_.cvSetpointA, &cols_.cvElapsedS,
                &cols_.cvCurrentA, &cols_.cvInputW, &cols_.cvTotalS});
    }
    kind_[row] = Kind::None;
}

void
ChargeLanes::evictAll()
{
    while (!cc_.empty())
        evict(cc_.back().row);
    while (!cv_.empty())
        evict(cv_.back().row);
}

void
ChargeLanes::beginStep(double dt)
{
    // An eviction moves the set's last lane into slot k: check it next.
    for (std::size_t k = 0; k < cc_.size();) {
        if (gates_.ccStepInterior(cols_.ccDod[k], cols_.ccSetpointA[k], dt))
            ++k;
        else
            evict(cc_[k].row);
    }
    for (std::size_t k = 0; k < cv_.size();) {
        if (CcCvKernel::cvStepInterior(cols_.cvTotalS[k],
                                       cols_.cvElapsedS[k], dt))
            ++k;
        else
            evict(cv_[k].row);
    }
}

bool
ChargeLanes::tryAdmit(PowerShelf &shelf, std::size_t row, double dt)
{
    DCBATT_ASSERT(!resident(row), "admitting resident row %zu", row);
    // PowerShelf::step() with input on, over packs that move as one:
    // the first healthy pack charges unpaused and every other healthy
    // pack's state bit-equals it, so they all step alike.
    if (!shelf.inputOn_)
        return false;
    const std::vector<bool> &healthy = shelf.healthy_;
    const auto first = std::find(healthy.begin(), healthy.end(), true);
    if (first == healthy.end())
        return false;
    std::size_t i = static_cast<std::size_t>(first - healthy.begin());
    BbuModel &rep = shelf.bbus_[i];
    if (rep.state_ != BbuState::Charging || rep.paused_)
        return false;
    const BbuModel::ChargeState state = rep.chargeState();
    for (++i; i < healthy.size(); ++i) {
        if (healthy[i] && !shelf.bbus_[i].matches(state))
            return false;
    }
    DCBATT_ASSERT(rep.setpoint_ >= rep.params_.minCurrent
                      && rep.setpoint_ <= rep.params_.maxCurrent,
                  "charging setpoint %g A outside hardware range "
                  "[%g, %g]",
                  rep.setpoint_.value(), rep.params_.minCurrent.value(),
                  rep.params_.maxCurrent.value());
    const double sp = rep.setpoint_.value();
    const Lane lane{&shelf, static_cast<std::uint32_t>(row),
                    shelf.healthyTotal_, steps_};
    if (!rep.inCv_) {
        if (!rep.kernel_.ccStepInterior(rep.dod_, sp, dt))
            return false;
        slot_[row] = static_cast<std::uint32_t>(cc_.size());
        cc_.push_back(lane);
        cols_.ccDod.push_back(rep.dod_);
        cols_.ccSetpointA.push_back(sp);
        cols_.ccInputW.push_back(rep.cachedInputW_);
        kind_[row] = Kind::Cc;
        return true;
    }
    // The same memo slot the stepped model's CV segment reads.
    const double total_cv = rep.totalCvMemo();
    if (!CcCvKernel::cvStepInterior(total_cv, rep.cvElapsed_.value(), dt))
        return false;
    slot_[row] = static_cast<std::uint32_t>(cv_.size());
    cv_.push_back(lane);
    cols_.cvDod.push_back(rep.dod_);
    cols_.cvSetpointA.push_back(sp);
    cols_.cvElapsedS.push_back(rep.cvElapsed_.value());
    cols_.cvCurrentA.push_back(rep.cachedCurrentA_);
    cols_.cvInputW.push_back(rep.cachedInputW_);
    cols_.cvTotalS.push_back(total_cv);
    kind_[row] = Kind::Cv;
    return true;
}

void
ChargeLanes::finishStep(double dt)
{
    if (size() == 0)
        return;
    kernel_.advance(cols_, dt);
    ++steps_;
    // Rack::rechargePower() with input on: PowerShelf::lockstepSum()'s
    // `healthy` repeated additions, not a product. Four lanes at a
    // time, so that their addition chains overlap.
    std::vector<double> &fleet_w = fleet_->rechargeW;
    auto fold = [&fleet_w](const std::vector<Lane> &lanes,
                           const std::vector<double> &input_w) {
        for (std::size_t k = 0; k < lanes.size(); k += 4) {
            const std::size_t w = std::min<std::size_t>(4, lanes.size() - k);
            const std::int32_t h = lanes[k].healthy;
            double sum[4] = {};
            if (w == 4 && lanes[k + 1].healthy == h
                && lanes[k + 2].healthy == h && lanes[k + 3].healthy == h) {
                for (std::int32_t j = 0; j < h; ++j) {
                    for (std::size_t l = 0; l < 4; ++l)
                        sum[l] += input_w[k + l];
                }
            } else {
                for (std::size_t l = 0; l < w; ++l) {
                    for (std::int32_t j = 0; j < lanes[k + l].healthy; ++j)
                        sum[l] += input_w[k + l];
                }
            }
            for (std::size_t l = 0; l < w; ++l)
                fleet_w[lanes[k + l].row] = sum[l];
        }
    };
    fold(cc_, cols_.ccInputW);
    fold(cv_, cols_.cvInputW);
}

} // namespace dcbatt::battery

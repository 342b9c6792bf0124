#include "battery/charge_lanes.h"

#include <algorithm>

#include "battery/bbu.h"
#include "battery/power_shelf.h"
#include "util/check.h"

namespace dcbatt::battery {

ChargeLanes::ChargeLanes(std::size_t rows, const BbuParams &params)
    : kind_(rows, Kind::None), gates_(params), kernel_(params)
{
}

void
ChargeLanes::evictAll()
{
    for (const Lane &lane : cc_)
        kind_[lane.row] = Kind::None;
    for (const Lane &lane : cv_)
        kind_[lane.row] = Kind::None;
    evicted_ = cc_.size() + cv_.size();
    compact();
}

void
ChargeLanes::beginStep(double dt)
{
    for (std::size_t k = 0; k < cc_.size(); ++k) {
        if (!gates_.ccStepInterior(cols_.ccDod[k], cols_.ccSetpointA[k],
                                   dt))
            evict(cc_[k].row);
    }
    for (std::size_t k = 0; k < cv_.size(); ++k) {
        if (!CcCvKernel::cvStepInterior(cols_.cvTotalS[k],
                                        cols_.cvElapsedS[k], dt))
            evict(cv_[k].row);
    }
    if (evicted_ != 0)
        compact();
}

void
ChargeLanes::compact()
{
    // Stable, so the surviving lanes keep their relative order.
    std::size_t j = 0;
    for (std::size_t k = 0; k < cc_.size(); ++k) {
        if (kind_[cc_[k].row] != Kind::Cc)
            continue;
        cc_[j] = cc_[k];
        cols_.ccDod[j] = cols_.ccDod[k];
        cols_.ccSetpointA[j] = cols_.ccSetpointA[k];
        cols_.ccInputW[j] = cols_.ccInputW[k];
        ++j;
    }
    cc_.resize(j);
    cols_.ccDod.resize(j);
    cols_.ccSetpointA.resize(j);
    cols_.ccInputW.resize(j);
    j = 0;
    for (std::size_t k = 0; k < cv_.size(); ++k) {
        if (kind_[cv_[k].row] != Kind::Cv)
            continue;
        cv_[j] = cv_[k];
        cols_.cvDod[j] = cols_.cvDod[k];
        cols_.cvSetpointA[j] = cols_.cvSetpointA[k];
        cols_.cvElapsedS[j] = cols_.cvElapsedS[k];
        cols_.cvCurrentA[j] = cols_.cvCurrentA[k];
        cols_.cvInputW[j] = cols_.cvInputW[k];
        cols_.cvTotalS[j] = cols_.cvTotalS[k];
        ++j;
    }
    cv_.resize(j);
    cols_.cvDod.resize(j);
    cols_.cvSetpointA.resize(j);
    cols_.cvElapsedS.resize(j);
    cols_.cvCurrentA.resize(j);
    cols_.cvInputW.resize(j);
    cols_.cvTotalS.resize(j);
    evicted_ = 0;
}

bool
ChargeLanes::tryAdmit(PowerShelf &shelf, std::size_t row, double dt)
{
    // A stale lane of this row would survive the next compaction next
    // to its successor.
    DCBATT_ASSERT(evicted_ == 0 && !resident(row),
                  "admitting row %zu with %zu uncompacted evictions",
                  row, evicted_);
    // PowerShelf::step()'s lockstep branch over BbuModel::step(): input
    // on, something charging, every healthy pack a twin of the
    // representative, which charges unpaused.
    if (!shelf.inputOn_)
        return false;
    shelf.ensureAggregates();
    if (shelf.chargingN_ == 0 || !shelf.lockstep_)
        return false;
    BbuModel &rep = shelf.bbus_[shelf.repIdx_];
    if (rep.state_ != BbuState::Charging || rep.paused_)
        return false;
    DCBATT_ASSERT(rep.setpoint_ >= rep.params_.minCurrent
                      && rep.setpoint_ <= rep.params_.maxCurrent,
                  "charging setpoint %g A outside hardware range "
                  "[%g, %g]",
                  rep.setpoint_.value(), rep.params_.minCurrent.value(),
                  rep.params_.maxCurrent.value());
    const double sp = rep.setpoint_.value();
    const Lane lane{&rep, &shelf, static_cast<std::uint32_t>(row),
                    shelf.healthyTotal_};
    if (!rep.inCv_) {
        if (!rep.kernel_.ccStepInterior(rep.dod_, sp, dt))
            return false;
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
ChargeLanes::writeShelf(const Lane &lane, double input_w, double dod,
                        FleetState &fleet)
{
    // An interior step moves only the continuous quantities: the pack
    // stays Charging in the same phase, unpaused, at the same
    // setpoint, so every counting aggregate (and the setpoint) is
    // still correct. The three continuous ones take
    // refreshAggregates()' lockstep fold: `healthy` repeated additions
    // of bit-equal values, not a product.
    PowerShelf &shelf = *lane.shelf;
    ++shelf.stepStats_.lockstepSteps;
    double recharge_w = 0.0;
    double dod_sum = 0.0;
    for (std::int32_t k = 0; k < lane.healthy; ++k) {
        recharge_w += input_w;
        dod_sum += dod;
    }
    shelf.rechargeSumW_ = recharge_w;
    shelf.dodSum_ = dod_sum;
    shelf.maxDodCache_ = std::max(0.0, dod);
    // Rack::rechargePower(): input power is on for every lane.
    fleet.rechargeW[lane.row] = recharge_w;
}

void
ChargeLanes::finishStep(double dt, FleetState &fleet)
{
    if (size() == 0)
        return;
    kernel_.advance(cols_, dt);
    for (std::size_t k = 0; k < cc_.size(); ++k) {
        // refreshDerived() at an interior CC point: the current stays
        // at the setpoint, the input power is the lane's.
        BbuModel &pack = *cc_[k].pack;
        pack.dod_ = cols_.ccDod[k];
        pack.cachedInputW_ = cols_.ccInputW[k];
        writeShelf(cc_[k], cols_.ccInputW[k], cols_.ccDod[k], fleet);
    }
    for (std::size_t k = 0; k < cv_.size(); ++k) {
        BbuModel &pack = *cv_[k].pack;
        pack.dod_ = cols_.cvDod[k];
        pack.cvElapsed_ = util::Seconds(cols_.cvElapsedS[k]);
        pack.cachedCurrentA_ = cols_.cvCurrentA[k];
        pack.cachedInputW_ = cols_.cvInputW[k];
        writeShelf(cv_[k], cols_.cvInputW[k], cols_.cvDod[k], fleet);
    }
}

} // namespace dcbatt::battery

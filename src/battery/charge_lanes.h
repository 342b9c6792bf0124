/**
 * @file
 * Resident charge lanes: the lockstep CC-CV shelves of one fleet, held
 * as columns across physics steps (DESIGN.md §16).
 *
 * During a recharge the healthy packs of most shelves move in lockstep
 * (each bit-equals the shelf's first healthy pack) and most steps are
 * strictly interior to one CC or CV segment. Such a step changes only
 * four continuous quantities, the same in every pack. A
 * power::Topology admits each such shelf to this table once; from then
 * on its steps run from the columns (gate re-check, BatchChargeKernel
 * advance, one pass folding input power into the fleet rows) without
 * visiting the rack, the shelf or the packs. A lane is the only
 * lockstep representation: a shelf that is not resident steps each
 * healthy pack on its own.
 *
 * The lane owns a resident shelf's continuous state: the packs' DOD,
 * CV elapsed time, current and input power, and the lane steps the
 * shelf has not counted yet. The shelf answers rechargePower(),
 * meanDod(), maxDod() and stepStats() from the lane; the lane is
 * written into every healthy pack when a pack is read (the const
 * PowerShelf::bbu() and representative(), which leave it resident)
 * and when it leaves the table. A lane is evicted when its gate fails
 * (a phase handover or completion falls inside dt) or when anything
 * else touches the shelf's pack state: every PowerShelf path that
 * fires its dirty callback and PowerShelf::step() call evict().
 */

#ifndef DCBATT_BATTERY_CHARGE_LANES_H_
#define DCBATT_BATTERY_CHARGE_LANES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "battery/bbu_params.h"
#include "battery/cc_cv_kernel.h"
#include "battery/fleet_state.h"

namespace dcbatt::battery {

class PowerShelf;

/** The resident lane table of one fleet; row r is fleet row r. */
class ChargeLanes
{
  public:
    /** A table for the rows of @p fleet, all calibrated by @p params. */
    ChargeLanes(FleetState &fleet, const BbuParams &params);

    /** Shelves point at the table; it never moves. */
    ChargeLanes(const ChargeLanes &) = delete;
    ChargeLanes &operator=(const ChargeLanes &) = delete;

    /** Whether row @p row has a resident lane. */
    bool resident(std::size_t row) const { return kind_[row] != Kind::None; }

    /** Resident lanes, CC and CV. */
    std::size_t size() const { return cc_.size() + cv_.size(); }

    /** A resident row's representative DOD. */
    double dod(std::size_t row) const
    {
        return at(row, cols_.ccDod, cols_.cvDod);
    }
    /** A resident row's Rack::rechargePower() (W): finishStep()'s fold. */
    double rechargeW(std::size_t row) const { return fleet_->rechargeW[row]; }

    /** Lane steps of a resident row its shelf has not counted yet. */
    std::uint64_t unsyncedSteps(std::size_t row) const
    {
        return steps_ - at(row, cc_, cv_).syncedAt;
    }

    /** Write a resident row's lane into its healthy packs and step count. */
    void materialize(std::size_t row);

    /** Materializations that wrote a pack, since construction. */
    std::uint64_t materializations() const { return materializations_; }

    /** Materialize row @p row's lane, if it has one, and drop it. */
    void evict(std::size_t row);

    /** Evict every lane (batching off, or a step with dt <= 0). */
    void evictAll();

    /**
     * Start a step of @p dt: re-check every lane's interior-segment
     * gate from the columns, with the stepped model's own expressions
     * (CcCvKernel::ccStepInterior / cvStepInterior), and evict the
     * lanes that fail. The evicted shelves take the object path this
     * step.
     */
    void beginStep(double dt);

    /**
     * Admit @p shelf as row @p row when its next step of @p dt would
     * integrate every healthy pack alike over one interior CC or CV
     * segment: input on, the first healthy pack charging unpaused and
     * every other healthy pack matching its BbuModel::ChargeState.
     * @returns whether it was admitted; if so, the row's step
     * is now the table's, not PowerShelf::step()'s. Only between
     * beginStep() and finishStep(), and only for @p dt > 0.
     */
    bool tryAdmit(PowerShelf &shelf, std::size_t row, double dt);

    /**
     * Advance every lane by @p dt in the columns and write each lane's
     * Rack::rechargePower() into `rechargeW` of its fleet row; nothing
     * else.
     */
    void finishStep(double dt);

  private:
    enum class Kind : std::uint8_t
    {
        None,
        Cc,
        Cv,
    };

    /** A lane's non-arithmetic part. */
    struct Lane
    {
        PowerShelf *shelf;
        std::uint32_t row;
        /** Healthy packs: the shelf's repeated-add fold count. */
        std::int32_t healthy;
        /** steps_ when the pack and the shelf last matched the lane. */
        std::uint64_t syncedAt;
    };

    /** Row @p row's entry of its set's @p cc or @p cv column. */
    template <typename T>
    const T &
    at(std::size_t row, const std::vector<T> &cc,
       const std::vector<T> &cv) const
    {
        return (kind_[row] == Kind::Cc ? cc : cv)[slot_[row]];
    }

    FleetState *fleet_;
    ChargeLaneColumns cols_;
    /** Lane k of a set is column k of that set. */
    std::vector<Lane> cc_;
    std::vector<Lane> cv_;
    /** Per fleet row: which set holds its lane, if any, and where. */
    std::vector<Kind> kind_;
    std::vector<std::uint32_t> slot_;
    /** finishStep() calls that advanced at least one lane. */
    std::uint64_t steps_ = 0;
    std::uint64_t materializations_ = 0;
    CcCvKernel gates_;
    BatchChargeKernel kernel_;
};

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_CHARGE_LANES_H_

/**
 * @file
 * Resident charge lanes: the lockstep CC-CV shelves of one fleet, held
 * as columns across physics steps (DESIGN.md §16).
 *
 * During a recharge most shelves are in lockstep mode (every healthy
 * pack a bit-equal twin of one representative) and most steps are
 * strictly interior to the representative's CC or CV segment. Such a
 * step changes only four continuous quantities of one pack and three
 * continuous aggregates of its shelf. A power::Topology admits each
 * such shelf to this table once; from then on the shelf's steps run
 * from the columns — gate re-check, BatchChargeKernel advance, one
 * write-back pass through direct pointers — without visiting the rack
 * or the shelf's step path.
 *
 * The packs stay the source of truth: the write-back leaves every pack
 * and shelf exactly as PowerShelf::step() would have, at every step
 * boundary. A lane leaves the table (eviction) when its gate fails —
 * a phase handover or completion falls inside dt — or when anything
 * else touches the shelf's pack state: every PowerShelf path that
 * fires its dirty callback, twin materialization, and
 * PowerShelf::step() itself call evict(). The shelf then steps through
 * the object path until it qualifies again.
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

class BbuModel;
class PowerShelf;

/** The resident lane table of one fleet; row r is fleet row r. */
class ChargeLanes
{
  public:
    /** A table for @p rows shelves, all calibrated by @p params. */
    ChargeLanes(std::size_t rows, const BbuParams &params);

    /** Shelves point at the table; it never moves. */
    ChargeLanes(const ChargeLanes &) = delete;
    ChargeLanes &operator=(const ChargeLanes &) = delete;

    /** Whether row @p row has a resident lane. */
    bool
    resident(std::size_t row) const
    {
        return kind_[row] != Kind::None;
    }

    /** Resident lanes, CC and CV. */
    std::size_t size() const { return cc_.size() + cv_.size(); }

    /**
     * Drop row @p row's lane, if it has one. The lane's columns go at
     * the next beginStep(); until then the row is not resident.
     */
    void
    evict(std::size_t row)
    {
        Kind &kind = kind_[row];
        if (kind != Kind::None) {
            kind = Kind::None;
            ++evicted_;
        }
    }

    /** Evict every lane (batching off, or a step with dt <= 0). */
    void evictAll();

    /**
     * Start a step of @p dt: re-check every lane's interior-segment
     * gate from the columns, with the stepped model's own expressions
     * (CcCvKernel::ccStepInterior / cvStepInterior), evict the lanes
     * that fail, and drop every evicted lane's columns. The evicted
     * shelves take the object path this step.
     */
    void beginStep(double dt);

    /**
     * Admit @p shelf as row @p row when its next step of @p dt would
     * be a lockstep integration of its representative over one
     * interior CC or CV segment (input on, charging, twins, not
     * paused). @returns whether it was admitted; if so, the row's step
     * is now the table's, not PowerShelf::step()'s. Only between
     * beginStep() and finishStep(), and only for @p dt > 0.
     */
    bool tryAdmit(PowerShelf &shelf, std::size_t row, double dt);

    /**
     * Advance every lane by @p dt and write the results back in one
     * pass: the representative's continuous state, the shelf's three
     * continuous aggregates (PowerShelf::refreshAggregates()'s fold)
     * and lockstep step count, and `fleet.rechargeW` of the lane's row.
     */
    void finishStep(double dt, FleetState &fleet);

  private:
    enum class Kind : std::uint8_t
    {
        None,
        Cc,
        Cv,
    };

    /** A lane's non-arithmetic part, read by the write-back only. */
    struct Lane
    {
        BbuModel *pack;
        PowerShelf *shelf;
        std::uint32_t row;
        /** Healthy packs: the shelf's repeated-add fold count. */
        std::int32_t healthy;
    };

    /** Drop the columns of every lane whose row was evicted. */
    void compact();

    /** The shelf half of the write-back for one lane. */
    static void writeShelf(const Lane &lane, double input_w, double dod,
                           FleetState &fleet);

    ChargeLaneColumns cols_;
    /** Lane k of a set is column k of that set. */
    std::vector<Lane> cc_;
    std::vector<Lane> cv_;
    /** Per fleet row: which set holds its lane, if any. */
    std::vector<Kind> kind_;
    /** Rows evicted since the columns were last compacted. */
    std::size_t evicted_ = 0;
    CcCvKernel gates_;
    BatchChargeKernel kernel_;
};

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_CHARGE_LANES_H_

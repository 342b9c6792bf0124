/**
 * @file
 * Region-scale fleet shape: dozens of MSBs under suites and buildings.
 *
 * The paper's experiments stop at one MSB (316 racks); the region spec
 * describes the rest of the Fig. 1 hierarchy so the simulator can
 * light up a production-scale fleet: `msbs` MSB subtrees, distributed
 * round-robin-by-block across `buildings x suitesPerBuilding` suites,
 * each MSB carrying `racksPerMsb` racks with the usual SB/RPP fan-out.
 *
 * Power constraints exist at three levels above the MSB breaker:
 * per-suite and per-building feeder caps, and a single region-wide
 * budget (the oversubscription knob — by default 85% of the sum of
 * MSB ratings, so the region cannot simultaneously run every MSB at
 * its breaker limit and the budget splitter has real work to do).
 *
 * The spec is pure shape/ratings data: trace generation and event
 * scheduling parameters ride along as plain fields, interpreted by
 * sim::runRegion (the builder cannot depend on trace/, which sits
 * above power/ in the layer stack).
 */

#ifndef DCBATT_POWER_REGION_SPEC_H_
#define DCBATT_POWER_REGION_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "battery/bbu_params.h"
#include "power/topology.h"
#include "util/units.h"

namespace dcbatt::power {

/** Shape, ratings, and run parameters of a region-scale simulation. */
struct RegionSpec
{
    std::string name = "region0";

    // --- fleet shape -------------------------------------------------
    int buildings = 1;
    int suitesPerBuilding = 4;
    /** Total MSBs in the region (assigned to suites in blocks). */
    int msbs = 50;
    int racksPerMsb = 300;
    /** SB/RPP fan-out inside each MSB subtree. */
    int sbsPerMsb = 2;
    int racksPerRpp = 16;

    /**
     * Per-MSB priority mix as rack counts (p1 + p3 <= racksPerMsb;
     * the remainder is P2). Defaults approximate the paper's mix.
     */
    int p1RacksPerMsb = -1;  ///< -1: racksPerMsb / 4
    int p3RacksPerMsb = -1;  ///< -1: racksPerMsb / 4

    // --- ratings and budgets -----------------------------------------
    util::Watts msbLimit = util::megawatts(2.5);
    /** Suite feeder cap (infinity: unconstrained). */
    util::Watts suiteLimit{std::numeric_limits<double>::infinity()};
    /** Building feeder cap (infinity: unconstrained). */
    util::Watts buildingLimit{std::numeric_limits<double>::infinity()};
    /**
     * Region-wide power budget the splitter divides across MSBs each
     * coordination tick; must be positive. Unset selects the default
     * oversubscribed budget: 85% of msbs * msbLimit.
     */
    std::optional<util::Watts> regionBudget;

    // --- time base ----------------------------------------------------
    uint64_t seed = 42;
    util::Seconds duration = util::hours(24.0);
    util::Seconds physicsStep{1.0};
    /** Budget-splitter cadence (the cross-MSB coordination tick). */
    util::Seconds coordinationPeriod{60.0};

    // --- load model (per MSB; see sim::runRegion) --------------------
    util::Seconds traceStep{3.0};
    util::Watts msbAggregateMean = util::megawatts(2.0);
    util::Watts msbAggregateAmplitude = util::megawatts(0.15);

    // --- outage campaign ---------------------------------------------
    /** Open transition of MSB 0 starts here. */
    util::Seconds firstOutage = util::hours(2.0);
    /** MSB i's open transition starts i * stagger later. */
    util::Seconds outageStagger = util::minutes(10.0);
    /** Sets the open-transition length (as in ChargingEventConfig). */
    double targetMeanDod = 0.5;
    /** Explicit open-transition length (overrides targetMeanDod). */
    std::optional<util::Seconds> openTransitionLength;

    // --- streaming-trace paging --------------------------------------
    size_t windowSamples = 1200;
    size_t maxResidentWindows = 2;

    /** Optional per-MSB physical-invariant auditing interval. */
    std::optional<util::Seconds> auditInterval;

    battery::BbuParams bbuParams;
};

/** Total suites in the region. */
int suiteCount(const RegionSpec &spec);

/** MSBs per suite (last suite may be short). */
int msbsPerSuite(const RegionSpec &spec);

/** Suite index (region-global) of MSB @p msb. */
int suiteOfMsb(const RegionSpec &spec, int msb);

/** Building index of MSB @p msb. */
int buildingOfMsb(const RegionSpec &spec, int msb);

/** Canonical MSB name: "<region>/b<building>/s<suite>/msb<index>". */
std::string msbName(const RegionSpec &spec, int msb);

/** The region budget, with the unset default resolved. */
util::Watts effectiveRegionBudget(const RegionSpec &spec);

/** Per-MSB priority mix with the -1 defaults resolved. */
std::vector<Priority> msbPriorityMix(const RegionSpec &spec);

/** Topology spec for one MSB subtree of the region. */
TopologySpec msbTopologySpec(const RegionSpec &spec, int msb);

/** Sim time at which MSB @p msb's open transition begins. */
util::Seconds msbOutageStart(const RegionSpec &spec, int msb);

/** Every MSB's open-transition length (power::openTransitionLength). */
util::Seconds msbOutageLength(const RegionSpec &spec);

/**
 * Exits (util::fatal) unless the spec is internally consistent, naming
 * the first problem: shapes, steps, the priority mix, budgets and
 * feeder caps that are not positive, a load model whose mean is not
 * positive, an open transition that is not positive, and an outage
 * campaign whose last charge start falls at or after the run's end.
 */
void validateRegionSpec(const RegionSpec &spec);

} // namespace dcbatt::power

#endif // DCBATT_POWER_REGION_SPEC_H_

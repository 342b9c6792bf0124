/**
 * @file
 * Region-scale simulation engine: dozens of MSBs, one deterministic
 * run.
 *
 * Each MSB of a power::RegionSpec becomes an independent *shard*: a
 * core::MsbRun (the step kernel runChargingEvent also runs) over its
 * own streaming trace source and its own EventQueue. Shards only
 * interact through the cross-MSB budget splitter
 * (core::splitRegionBudget), which runs every coordination tick on
 * the driving thread and imposes per-MSB power ceilings via
 * dynamo::BreakerController::setLimitCeiling.
 *
 * Determinism contract (DESIGN.md §15; pinned by
 * sim_region_engine_test):
 *
 *  - Shard count equals the MSB count and is part of the spec, never
 *    derived from --threads. Shard i's trace seed is substream i of
 *    the region seed.
 *  - Every shard queue advances in lockstep chunks of one coordination
 *    period, each shard on its home lane of a util::ThreadPool
 *    fork-join (the same thread every chunk, DESIGN.md §9); all
 *    cross-shard reads (budget reports, rollups) happen between
 *    chunks, on the driving thread, in shard-index order. Results are
 *    therefore bit-identical at any --threads.
 *  - Chunk boundary: the split for tick t runs before any shard
 *    physics at tick t. A chunk therefore runs each queue through
 *    (t + cadence - 1), leaving the boundary tick's events for after
 *    the next split. RegionEngine.PinnedFingerprint guards this.
 *
 * Artifacts: a per-MSB outcome table and a region rollup tape sampled
 * at the coordination cadence, plus obs-layer per-MSB gauges and the
 * region time-series tape when armed.
 */

#ifndef DCBATT_SIM_REGION_ENGINE_H_
#define DCBATT_SIM_REGION_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/msb_run.h"
#include "core/region_budget.h"
#include "power/region_spec.h"
#include "trace/streaming_trace_source.h"
#include "util/time_series.h"

namespace dcbatt::sim {

/** Execution knobs (never simulation semantics). */
struct RegionRunOptions
{
    /**
     * Lanes (>= 1): threads stepping shards, the calling thread
     * included. N lanes start N - 1 workers; 1 starts none.
     */
    unsigned threads = 1;
};

/** Outcome of one MSB shard: its rack tallies plus region fields. */
struct RegionMsbOutcome : core::MsbTally
{
    int msbIndex = -1;
    std::string name;
    int racks = 0;
    int suite = 0;
    int building = 0;

    double peakMw = 0.0;
    /** Physics steps above the MSB breaker rating. */
    int overloadSteps = 0;
    /** Physics steps above the granted budget ceiling (+1 kW). */
    int budgetOverSteps = 0;

    double meanGrantMw = 0.0;
    double minGrantMw = 0.0;
    double maxGrantMw = 0.0;

    double itEnergyMwh = 0.0;
    double rechargeEnergyMwh = 0.0;

    /**
     * Each rack's time from charging start to fully charged, by rack
     * id (unset: never), as core::RackOutcome::chargeDuration.
     */
    std::vector<std::optional<util::Seconds>> rackChargeDurations;

    uint64_t traceWindowsGenerated = 0;
    uint64_t traceRefetches = 0;
    uint64_t traceEvictions = 0;
    size_t tracePeakResidentBytes = 0;
};

/** Region-level result: per-MSB outcomes plus the rollup tape. */
struct RegionResult
{
    std::vector<RegionMsbOutcome> msbs;

    /**
     * Rollup series sampled once per coordination tick (start 0,
     * step = coordinationPeriod). Power values are MW. "it"/"recharge"
     * are grid draw folded from the shards' last physics step;
     * "demand" is the uncurtailed IT demand the splitter saw;
     * "grant"/"unmet" come from the budget split of that tick.
     */
    util::TimeSeries itMw;
    util::TimeSeries demandItMw;
    util::TimeSeries rechargeMw;
    util::TimeSeries capMw;
    util::TimeSeries grantMw;
    util::TimeSeries unmetMw;
    util::TimeSeries regionPowerMw;

    double peakRegionMw = 0.0;
    uint64_t coordinationTicks = 0;
    /** Splitter audits run (one per coordination tick). */
    uint64_t budgetAudits = 0;
    /** Per-shard physical-invariant audit passes (if enabled). */
    uint64_t physicalAudits = 0;
    /** Sum over shards of each trace source's peak resident bytes. */
    size_t tracePeakResidentBytes = 0;

    int racksTotal() const
    {
        int n = 0;
        for (const RegionMsbOutcome &msb : msbs)
            n += msb.racks;
        return n;
    }
};

/** The streaming trace MSB @p msb of @p spec replays. */
trace::StreamingTraceSpec msbTraceSpec(const power::RegionSpec &spec,
                                       int msb);

/**
 * MSB @p msb's budget-splitter input, read from @p topology's fleet
 * columns: IT load is cappedItLoad() of the demand and cap storage,
 * and each rack whose `fullyCharged` snapshot is clear asks for a full
 * charge in class @p priorityRow[i] (power::priorityIndex of rack i's
 * priority). Folded in row order, so it equals the walk over
 * Topology::racks() bit for bit from one physics step to the next.
 */
core::MsbBudgetReport msbBudgetReport(const power::RegionSpec &spec,
                                      int msb,
                                      const power::Topology &topology,
                                      const std::vector<uint8_t> &priorityRow);

/**
 * Run the region described by @p spec for its full duration.
 * Byte-identical output for any options.threads.
 */
RegionResult runRegion(const power::RegionSpec &spec,
                       const RegionRunOptions &options = {});

} // namespace dcbatt::sim

#endif // DCBATT_SIM_REGION_ENGINE_H_

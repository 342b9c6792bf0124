/**
 * @file
 * The traced harness: the two simulator entry points the workloads
 * time, rebuilt from public calls only, with a Span around each call
 * into a layer.
 *
 * core::runChargingEvent and sim::runRegion do not expose their
 * insides, so the per-layer split cannot be read off the engine. The
 * harness performs the same calls in the same order, which makes its
 * simulated outcomes bit-identical to the engine's; the workloads
 * check that by digest on every traced run and report the layer
 * numbers as unattributed when the two disagree.
 *
 * The harness leaves out the engine's flight-recorder side channels
 * (event log, time-series tapes, crash context, invariant auditing),
 * which are disarmed in the timed runs and never change outcomes.
 */

#ifndef DCBATT_PERFBENCH_HARNESS_H_
#define DCBATT_PERFBENCH_HARNESS_H_

#include "core/charging_event_sim.h"
#include "power/region_spec.h"
#include "sim/region_engine.h"
#include "trace/trace_set.h"
#include "util/thread_pool.h"

namespace perfbench {

/** core::runChargingEvent, span by span. */
dcbatt::core::ChargingEventResult
runChargingEventTraced(const dcbatt::core::ChargingEventConfig &config,
                       const dcbatt::trace::TraceSet &traces);

/**
 * sim::runRegion (sharded mode), span by span. @p pool supplies the
 * workers; the calling thread joins each chunk, as in the engine.
 */
dcbatt::sim::RegionResult
runRegionTraced(const dcbatt::power::RegionSpec &spec,
                dcbatt::util::ThreadPool &pool);

} // namespace perfbench

#endif // DCBATT_PERFBENCH_HARNESS_H_

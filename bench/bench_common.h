/**
 * @file
 * Shared plumbing for the figure/table reproduction benches: the
 * paper's MSB fleet trace (generated once and cached), the command
 * line every bench parses, and small formatting helpers so every
 * bench prints comparable output.
 */

#ifndef DCBATT_BENCH_BENCH_COMMON_H_
#define DCBATT_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>

#include "cli.h"
#include "core/charging_event_sim.h"
#include "sim/sweep_runner.h"
#include "trace/trace_generator.h"
#include "trace/trace_set.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace dcbatt::bench {

/**
 * The simulation-experiment fleet of Section V-B: 316 racks (89 P1,
 * 142 P2, 85 P3) under one MSB, 3 s samples, 8-hour window around the
 * first afternoon peak.
 *
 * Thread-safety contract: this is a process-wide singleton built by
 * C++11 thread-safe static initialization (first caller constructs,
 * concurrent callers block until it is ready) and returned as a
 * *const* reference — it is never mutated afterwards, TraceSet's read
 * paths are all const, and so the one instance is safe to share
 * across SweepRunner tasks. bench_common.cc static_asserts the const
 * part of the contract.
 */
const trace::TraceSet &paperMsbTraces();

/** The matching priority vector. */
const std::vector<power::Priority> &paperPriorities();

/** Base config for the Section V-B experiments. */
core::ChargingEventConfig paperEventConfig(core::PolicyKind policy,
                                           util::Watts limit,
                                           double mean_dod);

/** "2.500 MW" style formatting. */
std::string fmtMw(util::Watts watts);
/** "123.4 kW" style formatting. */
std::string fmtKw(util::Watts watts);
/** "12.3 min" style formatting. */
std::string fmtMin(util::Seconds seconds);

/** Print a bench banner naming the paper artifact being reproduced. */
void banner(const std::string &artifact, const std::string &summary);

/**
 * Parse a bench's command line and arm the recorders it asks for: the
 * observability flags, the flags @p add_flags registers, and, for a
 * bench that builds a pool, `--threads N` into @p threads: the lanes
 * doing the work (0, the default, resolves to the hardware
 * concurrency; the count goes to stderr, as stdout must not depend on
 * it). A SweepRunner bench gives its pool N workers, the caller only
 * waiting; a parallelFor bench, whose caller works too, gives it
 * N - 1. Call finish() on the result after the run.
 */
cli::Observability parseBenchArgs(
    int argc, char **argv, unsigned *threads = nullptr,
    const std::function<void(cli::Flags &)> &add_flags = nullptr);

} // namespace dcbatt::bench

#endif // DCBATT_BENCH_BENCH_COMMON_H_

/**
 * @file
 * The benchmark's workloads and the metrics each run reports.
 *
 *  - paper_sweep: the Section V-B grid on the paper's 316-rack trace,
 *    one core::runChargingEvent per operation.
 *  - region_day: 8 MSBs x 300 racks x 24 h through sim::runRegion.
 *  - region_surge: 48 MSBs x 64 racks x 6 h, every open transition at
 *    once, 3 s coordination.
 *
 * An untraced run reports the end-to-end metrics; a traced run drives
 * the span harness (harness.h) next to the engine and reports the
 * per-layer metrics. perfbench/BASELINE.md defines every metric.
 */

#ifndef DCBATT_PERFBENCH_WORKLOADS_H_
#define DCBATT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Measurement budget; rounds start while they fit in it. */
    double seconds = 10.0;
    bool traced = false;
    /** Shrunken shapes that run in seconds (self-test only). */
    bool shrink = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunReport
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Run manifest and context (key, already-JSON-encoded value). */
    std::vector<std::pair<std::string, std::string>> manifest;
    /** Why a check failed, one line each. */
    std::vector<std::string> problems;
};

/** @p text as a quoted JSON string. */
std::string jsonString(std::string_view text);

/** Whether @p name is a workload this benchmark defines. */
bool knownWorkload(const std::string &name);

/** Run one workload; never throws for a failed check (see report). */
RunReport runWorkload(const RunOptions &options);

} // namespace perfbench

#endif // DCBATT_PERFBENCH_WORKLOADS_H_

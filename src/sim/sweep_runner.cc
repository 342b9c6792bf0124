#include "sim/sweep_runner.h"

#include <exception>
#include <future>

#include "battery/batch_charge_kernel.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dcbatt::sim {

std::vector<core::ChargingEventResult>
SweepRunner::run(const std::vector<SweepTask> &tasks) const
{
    battery::resolveKernelSwitches();
    DCBATT_COUNT("sweep.runs");
    DCBATT_COUNT_N("sweep.tasks", tasks.size());
    DCBATT_SPAN_NAMED(sweep_span, "sweep.run");
    sweep_span.arg("tasks", static_cast<double>(tasks.size()));
    std::vector<std::future<core::ChargingEventResult>> futures;
    futures.reserve(tasks.size());
    for (size_t task_idx = 0; task_idx < tasks.size(); ++task_idx) {
        const SweepTask &task = tasks[task_idx];
        const trace::TraceSet *traces =
            task.traces ? task.traces : task.sharedTraces.get();
        DCBATT_REQUIRE(traces != nullptr,
                       "sweep task '%s' has no trace set",
                       task.label.c_str());
        // The config is copied into the closure; the trace set is
        // shared read-only across tasks (the shared_ptr, when that is
        // the handle given, keeps the set alive for the task's
        // lifetime). Warm its lazy aggregate/peak caches here, on the
        // submitting thread, so the workers never write them.
        traces->warmCaches();
        // The flight-recorder scope embeds the submission index, so
        // event logs and time-series tapes merge into task order no
        // matter which worker thread runs which task.
        futures.push_back(pool_->submit(
            [config = task.config, traces,
             owner = task.sharedTraces,
             scope = util::strf("%04zu:%s", task_idx,
                                task.label.c_str())] {
                obs::RunScope run_scope(scope);
                return core::runChargingEvent(config, *traces);
            }));
    }

    // Collect in task order. Every future is drained before any
    // rethrow so no task is left running against a caller frame that
    // is already unwinding.
    std::vector<core::ChargingEventResult> results(tasks.size());
    std::exception_ptr first_error;
    for (size_t i = 0; i < futures.size(); ++i) {
        try {
            results[i] = futures[i].get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

} // namespace dcbatt::sim

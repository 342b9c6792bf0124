/**
 * @file
 * Reproduces Fig. 15: the Fig. 14 experiment repeated with different
 * rack priority distributions at medium discharge — evenly
 * distributed priorities (one third each) and all racks P1. With a
 * uniform fleet the priority-aware algorithm still beats the global
 * baseline because lowest-discharge-first maximizes the number of
 * racks whose SLA fits the available power.
 *
 * Each panel's nine events carry a per-panel trace handle (the trace
 * set must match the priority mix); all 36 events fan out across the
 * SweepRunner pool (--threads N) and print in fixed order.
 */

#include <cstdio>

#include "bench_common.h"
#include "trace/trace_generator.h"
#include "util/stats.h"
#include "util/text_table.h"

using namespace dcbatt;
using core::PolicyKind;
using power::Priority;

namespace {

struct Distribution
{
    const char *name;
    std::vector<Priority> priorities;
};

const std::vector<double> &
limitSweep()
{
    static const std::vector<double> limits = [] {
        std::vector<double> ls;
        for (double limit = 2.6; limit >= 2.2 - 1e-9; limit -= 0.05)
            ls.push_back(limit);
        return ls;
    }();
    return limits;
}

std::vector<sim::SweepTask>
panelTasks(const Distribution &dist, PolicyKind policy,
           const trace::TraceSet &traces)
{
    std::vector<sim::SweepTask> tasks;
    for (double limit : limitSweep()) {
        sim::SweepTask task;
        task.label = util::strf("%s/%s/%.2fMW", dist.name,
                                core::toString(policy), limit);
        task.config = bench::paperEventConfig(
            policy, util::megawatts(limit), 0.5);
        task.config.priorities = dist.priorities;
        task.config.postEventDuration = util::minutes(100.0);
        task.traces = &traces;
        tasks.push_back(std::move(task));
    }
    return tasks;
}

/** Print one panel from its (already computed) slice of results. */
void
printPanel(const char *panel, const Distribution &dist,
           PolicyKind policy,
           const std::vector<core::ChargingEventResult> &results,
           size_t &idx, util::RunningStats *total_stats)
{
    std::printf("\n--- Fig. 15 %s: %s, %s priorities ---\n", panel,
                core::toString(policy), dist.name);
    util::TextTable table({"limit (MW)", "P1 met", "P2 met", "P3 met",
                           "total (of 316)"});
    for (double limit : limitSweep()) {
        const auto &result = results[idx++];
        table.addRow({util::strf("%.2f", limit),
                      util::strf("%d", result.slaMetByPriority[0]),
                      util::strf("%d", result.slaMetByPriority[1]),
                      util::strf("%d", result.slaMetByPriority[2]),
                      util::strf("%d", result.slaMetTotal())});
        total_stats->add(result.slaMetTotal());
    }
    std::printf("%s", table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = 0;
    auto observability = bench::parseBenchArgs(argc, argv, &threads);
    util::ThreadPool pool(threads);
    bench::banner("Fig. 15",
                  "SLA satisfaction vs power limit for different rack "
                  "priority distributions (medium discharge)");

    Distribution even{"evenly distributed (1/3 each)",
                      power::makePriorityMix(106, 105, 105)};
    Distribution all_p1{"all racks P1",
                        std::vector<Priority>(316, Priority::P1)};

    // Traces must match the priority mixes.
    auto make_traces = [](const std::vector<Priority> &priorities) {
        trace::TraceGenSpec spec;
        spec.rackCount = 316;
        spec.startTime = util::hours(10.0);
        spec.duration = util::hours(8.0);
        spec.priorities = priorities;
        return trace::generateTraces(spec);
    };
    trace::TraceSet even_traces = make_traces(even.priorities);
    trace::TraceSet p1_traces = make_traces(all_p1.priorities);

    sim::SweepRunner runner(pool);

    std::vector<sim::SweepTask> tasks;
    auto append = [&tasks](std::vector<sim::SweepTask> panel) {
        for (sim::SweepTask &task : panel)
            tasks.push_back(std::move(task));
    };
    append(panelTasks(even, PolicyKind::PriorityAware, even_traces));
    append(panelTasks(even, PolicyKind::GlobalRate, even_traces));
    append(panelTasks(all_p1, PolicyKind::PriorityAware, p1_traces));
    append(panelTasks(all_p1, PolicyKind::GlobalRate, p1_traces));
    auto results = runner.run(tasks);

    util::RunningStats even_pa, even_global, p1_pa, p1_global;
    size_t idx = 0;
    printPanel("(a)", even, PolicyKind::PriorityAware, results, idx,
               &even_pa);
    printPanel("(b)", even, PolicyKind::GlobalRate, results, idx,
               &even_global);
    printPanel("(c)", all_p1, PolicyKind::PriorityAware, results, idx,
               &p1_pa);
    printPanel("(d)", all_p1, PolicyKind::GlobalRate, results, idx,
               &p1_global);

    std::printf("\naverage racks meeting SLA across the limit "
                "sweep:\n");
    std::printf("  even thirds:  priority-aware %.0f vs global "
                "%.0f\n",
                even_pa.mean(), even_global.mean());
    std::printf("  all P1:       priority-aware %.0f vs global %.0f "
                "(paper: 208, ~3x the baseline)\n",
                p1_pa.mean(), p1_global.mean());
    std::printf("\nPaper shape check: with every rack P1, "
                "lowest-discharge-first still maximizes\nthe number "
                "of satisfied SLAs for the given power — the "
                "priority-aware average is\nseveral times the global "
                "baseline's.\n");
    observability.finish();
    return 0;
}

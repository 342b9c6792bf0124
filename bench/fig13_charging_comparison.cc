/**
 * @file
 * Reproduces Fig. 13 (a)-(f) and Table III: MSB power during a
 * charging event for the original 5 A charger, the variable charger,
 * and coordinated priority-aware charging, at power limits 2.5 MW and
 * 2.3 MW and low/medium/high battery discharge (mean DOD 30/50/70%),
 * plus the maximum server power capping each combination needs.
 *
 * The 18 charging events are independent, so they fan out across the
 * SweepRunner pool (--threads N, default hardware concurrency) and
 * print in fixed order afterwards: output is byte-identical at any
 * thread count.
 */

#include <cstdio>

#include "bench_common.h"
#include "util/ascii_chart.h"
#include "util/text_table.h"

using namespace dcbatt;
using core::ChargingEventResult;
using core::PolicyKind;
using util::Watts;

int
main(int argc, char **argv)
{
    unsigned threads = 0;
    auto observability = bench::parseBenchArgs(argc, argv, &threads);
    util::ThreadPool pool(threads);
    bench::banner("Fig. 13 + Table III",
                  "MSB power with original / variable / "
                  "priority-aware charging; max server capping");

    struct Case
    {
        const char *label;
        double limit_mw;
        double mean_dod;
        const char *discharge;
    };
    const Case cases[] = {
        {"(a)", 2.5, 0.3, "low"},    {"(b)", 2.3, 0.3, "low"},
        {"(c)", 2.5, 0.5, "medium"}, {"(d)", 2.3, 0.5, "medium"},
        {"(e)", 2.5, 0.7, "high"},   {"(f)", 2.3, 0.7, "high"},
    };
    const PolicyKind policies[] = {PolicyKind::OriginalLocal,
                                   PolicyKind::VariableLocal,
                                   PolicyKind::PriorityAware};
    const char glyphs[] = {'o', 'v', 'p'};

    sim::SweepRunner runner(pool);

    // All 18 (case, policy) events, in print order.
    std::vector<sim::SweepTask> tasks;
    for (const Case &c : cases) {
        for (PolicyKind policy : policies) {
            sim::SweepTask task;
            task.label = util::strf("%s/%s", c.label,
                                    core::toString(policy));
            task.config = bench::paperEventConfig(
                policy, util::megawatts(c.limit_mw), c.mean_dod);
            task.traces = &bench::paperMsbTraces();
            tasks.push_back(std::move(task));
        }
    }
    std::vector<ChargingEventResult> results = runner.run(tasks);

    util::TextTable table_iii(
        {"Case", "Original charger", "Variable charger",
         "Priority-aware"});

    size_t idx = 0;
    for (const Case &c : cases) {
        std::printf("\n--- Fig. 13 %s: limit %.1f MW, %s discharge "
                    "(mean DOD %.0f%%) ---\n",
                    c.label, c.limit_mw, c.discharge,
                    c.mean_dod * 100.0);
        std::vector<util::ChartSeries> series;
        std::vector<std::string> row{c.label};
        for (size_t p = 0; p < 3; ++p) {
            const ChargingEventResult &result = results[idx++];
            series.push_back(util::seriesFromTimeSeries(
                result.msbPower.downsample(120),
                core::toString(policies[p]), glyphs[p], 1.0 / 60.0,
                1e-6));
            row.push_back(util::strf(
                "%.0f kW (%.0f%%)", util::toKilowatts(result.maxCap),
                result.maxCapFractionOfIt * 100.0));
            std::printf("  %-14s peak %s, overload %4d s, max cap "
                        "%s%s\n",
                        core::toString(policies[p]),
                        bench::fmtMw(result.peakPower).c_str(),
                        result.overloadSteps,
                        bench::fmtKw(result.maxCap).c_str(),
                        result.breakerTripped ? "  [BREAKER TRIPPED]"
                                              : "");
        }
        table_iii.addRow(std::move(row));

        util::ChartOptions options_chart;
        options_chart.title = util::strf(
            "Fig. 13 %s — MSB power (limit %.1f MW marked by the "
            "y-range top)",
            c.label, c.limit_mw);
        options_chart.xLabel = "time (minutes)";
        options_chart.yLabel = "MSB power (MW)";
        options_chart.yMin = 0.0;
        options_chart.yMax = 2.8;
        std::printf("%s\n",
                    util::renderChart(series, options_chart).c_str());
    }

    std::printf("\n=== Table III: maximum server power capping "
                "required ===\n%s\n",
                table_iii.render().c_str());
    std::printf("Paper Table III: original 149-405 kW (7-20%%); "
                "variable 0-171 kW (0-8%%);\npriority-aware 0 kW in "
                "all six cases. Capping begins for priority-aware "
                "only when\navailable power drops below ~120 kW "
                "(316 racks at the 1 A floor).\n");
    observability.finish();
    return 0;
}

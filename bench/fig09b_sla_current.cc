/**
 * @file
 * Reproduces Fig. 9(b): the charging current required to satisfy each
 * priority's charging-time SLA as a function of the battery's depth
 * of discharge, derived by inverting the Fig. 5 charge-time data.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/sla_current.h"
#include "util/ascii_chart.h"
#include "util/text_table.h"

using namespace dcbatt;
using power::Priority;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Fig. 9(b)",
                  "SLA charging current vs DOD per rack priority");

    core::SlaCurrentCalculator calc(battery::ChargeTimeModel(),
                                    core::SlaTable::paperDefault());

    util::TextTable table({"DOD", "P1 (30 min)", "P2 (60 min)",
                           "P3 (90 min)"});
    std::vector<util::ChartSeries> series{
        {"P1 (30 min SLA)", '1', {}, {}},
        {"P2 (60 min SLA)", '2', {}, {}},
        {"P3 (90 min SLA)", '3', {}, {}}};
    for (int pct = 0; pct <= 100; pct += 5) {
        double dod = pct / 100.0;
        std::vector<std::string> row{util::strf("%d%%", pct)};
        for (Priority p : power::kAllPriorities) {
            double amps = calc.requiredCurrent(dod, p).value();
            row.push_back(util::strf("%.2f A", amps));
            auto &s = series[static_cast<size_t>(
                power::priorityIndex(p))];
            s.xs.push_back(pct);
            s.ys.push_back(amps);
        }
        if (pct % 10 == 0)
            table.addRow(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());

    util::ChartOptions options;
    options.title = "Required charging current vs DOD";
    options.xLabel = "depth of discharge (%)";
    options.yLabel = "charging current (A)";
    options.yMin = 0.0;
    options.yMax = 6.0;
    std::printf("%s\n", util::renderChart(series, options).c_str());

    std::printf("Paper checks: at <5%% DOD the SLA currents are 2 A "
                "(P1) and 1 A (P2/P3) — the\nvalues the Fig. 10 "
                "prototype assigned; P1 saturates at the 5 A hardware "
                "limit for\nDOD above %.0f%%.\n",
                calc.maxAttainableDod(Priority::P1) * 100.0);
    observability.finish();
    return 0;
}

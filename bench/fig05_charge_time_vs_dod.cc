/**
 * @file
 * Reproduces Fig. 5: BBU charging time versus depth of discharge for
 * charging currents 1-5 A — the "lab data" the variable charger and
 * the SLA-current calculation are derived from.
 */

#include <cstdio>

#include "battery/charge_time_model.h"
#include "bench_common.h"
#include "util/ascii_chart.h"
#include "util/text_table.h"

using namespace dcbatt;
using util::Amperes;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Fig. 5",
                  "charging time vs DOD for charging currents 1-5 A");

    battery::ChargeTimeModel model;

    std::vector<std::string> header{"DOD"};
    for (int amps = 1; amps <= 5; ++amps)
        header.push_back(util::strf("%d A (min)", amps));
    util::TextTable table(header);

    std::vector<util::ChartSeries> series;
    for (int amps = 1; amps <= 5; ++amps) {
        series.push_back({util::strf("%d A", amps),
                          static_cast<char>('0' + amps),
                          {},
                          {}});
    }

    for (int pct = 5; pct <= 100; pct += 5) {
        double dod = pct / 100.0;
        std::vector<std::string> row{util::strf("%d%%", pct)};
        for (int amps = 1; amps <= 5; ++amps) {
            double min = util::toMinutes(
                model.chargeTime(dod, Amperes(amps)));
            row.push_back(util::strf("%.1f", min));
            series[static_cast<size_t>(amps - 1)].xs.push_back(dod
                                                               * 100.0);
            series[static_cast<size_t>(amps - 1)].ys.push_back(min);
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());

    util::ChartOptions options;
    options.title = "Charging time vs depth of discharge";
    options.xLabel = "depth of discharge (%)";
    options.yLabel = "charging time (min)";
    std::printf("%s\n", util::renderChart(series, options).c_str());

    std::printf("Paper checks:\n");
    std::printf("  flat below ~22%% DOD at 5 A:     threshold %.1f%%\n",
                model.flatDodThreshold(Amperes(5.0)) * 100.0);
    std::printf("  5 A worst case within 45 min:   %s\n",
                bench::fmtMin(model.chargeTime(1.0, Amperes(5.0)))
                    .c_str());
    std::printf("  1 A considerably slower:        %s\n",
                bench::fmtMin(model.chargeTime(1.0, Amperes(1.0)))
                    .c_str());
    std::printf("  <50%% DOD at 2 A ~same time:     %s\n",
                bench::fmtMin(model.chargeTime(0.5, Amperes(2.0)))
                    .c_str());
    observability.finish();
    return 0;
}

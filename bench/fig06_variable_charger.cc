/**
 * @file
 * Reproduces Fig. 6(b) / Eq. (1): the variable charger's CC-mode
 * current selection as a function of depth of discharge, and verifies
 * the design objective (always recharge within the original charger's
 * 45-minute worst case while cutting recharge power by up to 60%).
 */

#include <cstdio>

#include "battery/charge_time_model.h"
#include "battery/charger_policy.h"
#include "bench_common.h"
#include "util/ascii_chart.h"
#include "util/text_table.h"

using namespace dcbatt;
using util::Amperes;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Fig. 6(b) / Eq. (1)",
                  "variable charger CC current selection vs DOD");

    battery::VariableChargerPolicy variable;
    battery::OriginalChargerPolicy original;
    battery::ChargeTimeModel model;

    util::ChartSeries eq1{"I_C (Eq. 1)", '*', {}, {}};
    util::TextTable table({"DOD", "I_C (A)", "charge time (min)",
                           "power vs original"});
    double worst_minutes = 0.0;
    for (int pct = 0; pct <= 100; pct += 5) {
        double dod = pct / 100.0;
        Amperes amps = variable.initialCurrent(dod);
        double minutes =
            util::toMinutes(model.chargeTime(dod, amps));
        worst_minutes = std::max(worst_minutes, minutes);
        eq1.xs.push_back(pct);
        eq1.ys.push_back(amps.value());
        if (pct % 10 == 0) {
            double reduction = 1.0
                - amps / original.initialCurrent(dod);
            table.addRow({util::strf("%d%%", pct),
                          util::strf("%.1f", amps.value()),
                          util::strf("%.1f", minutes),
                          util::strf("-%.0f%%", reduction * 100.0)});
        }
    }
    std::printf("%s\n", table.render().c_str());

    util::ChartOptions options;
    options.title = "Variable charger current selection";
    options.xLabel = "depth of discharge (%)";
    options.yLabel = "CC current (A)";
    options.yMin = 0.0;
    options.yMax = 6.0;
    std::printf("%s\n", util::renderChart({eq1}, options).c_str());

    std::printf("Paper checks:\n");
    std::printf("  2 A floor below 50%% DOD, linear 2->5 A above.\n");
    std::printf("  worst-case charge time %.1f min (must be <= 45)\n",
                worst_minutes);
    std::printf("  recharge power cut by 60%% for DOD < 50%% "
                "(2 A vs 5 A).\n");
    observability.finish();
    return 0;
}

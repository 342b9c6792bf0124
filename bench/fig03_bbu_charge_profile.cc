/**
 * @file
 * Reproduces Fig. 3: charging of a BBU after a full 90-second
 * discharge with the original 5 A charger — current and voltage vs
 * time, the CC->CV handover at 52 V (~20 min), the 0.4 A cutoff, and
 * the ~36-minute total sequence.
 */

#include <cstdio>

#include "battery/bbu.h"
#include "battery/charge_time_model.h"
#include "bench_common.h"
#include "util/ascii_chart.h"
#include "util/text_table.h"

using namespace dcbatt;
using util::Amperes;
using util::Seconds;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Fig. 3",
                  "BBU charge profile after a full discharge (5 A "
                  "original charger)");

    battery::BbuModel bbu;
    bbu.discharge(util::Watts(3300.0), Seconds(90.0));  // 100% DOD
    bbu.startCharging(Amperes(5.0));

    util::ChartSeries current{"charging current (A)", 'I', {}, {}};
    util::ChartSeries voltage{"voltage (V/10)", 'V', {}, {}};
    util::TextTable table({"t (min)", "current (A)", "voltage (V)",
                           "phase", "input power (W)"});

    double t = 0.0;
    double cc_end_min = -1.0;
    while (!bbu.fullyCharged() && t < 3600.0 * 2.0) {
        if (static_cast<int>(t) % 120 == 0) {
            current.xs.push_back(t / 60.0);
            current.ys.push_back(bbu.chargingCurrent().value());
            voltage.xs.push_back(t / 60.0);
            voltage.ys.push_back(bbu.terminalVoltage().value() / 10.0);
        }
        if (static_cast<int>(t) % 240 == 0) {
            table.addRow({util::strf("%.0f", t / 60.0),
                          util::strf("%.2f",
                                     bbu.chargingCurrent().value()),
                          util::strf("%.1f",
                                     bbu.terminalVoltage().value()),
                          bbu.inCvPhase() ? "CV" : "CC",
                          util::strf("%.0f",
                                     bbu.inputPower().value())});
        }
        bool was_cc = !bbu.inCvPhase();
        bbu.step(Seconds(1.0));
        if (was_cc && bbu.inCvPhase())
            cc_end_min = (t + 1.0) / 60.0;
        t += 1.0;
    }

    std::printf("%s\n", table.render().c_str());

    util::ChartOptions options;
    options.title = "BBU charging after full discharge";
    options.xLabel = "time (minutes)";
    options.yLabel = "I (A) / V (V/10)";
    std::printf("%s\n",
                util::renderChart({current, voltage}, options).c_str());

    battery::ChargeTimeModel model;
    std::printf("CC phase ends (52 V reached):  %.1f min "
                "(paper: ~20 min)\n",
                cc_end_min);
    std::printf("full charging sequence:        %.1f min "
                "(paper: ~36 min)\n",
                t / 60.0);
    std::printf("closed-form charge time:       %s\n",
                bench::fmtMin(model.chargeTime(1.0, Amperes(5.0)))
                    .c_str());
    std::printf("initial charging power:        %.0f W "
                "(paper: ~260 W)\n",
                [&] {
                    battery::BbuModel fresh;
                    fresh.forceDod(1.0);
                    fresh.startCharging(Amperes(5.0));
                    return fresh.inputPower().value();
                }());
    observability.finish();
    return 0;
}

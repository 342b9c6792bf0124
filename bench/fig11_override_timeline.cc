/**
 * @file
 * Reproduces Fig. 11: fine-grain recharge power of one rack whose BBU
 * charging current is overridden by the leaf controller. The open
 * transition starts at t=35 s; the controller detects the first BBU
 * recharge power, issues the override, and the BBU power stabilizes
 * at the override value ~20 s after the command (the actuation lag).
 */

#include <cstdio>

#include "bench_common.h"
#include "dynamo/agent.h"
#include "power/rack.h"
#include "util/ascii_chart.h"

using namespace dcbatt;
using util::Amperes;
using util::Seconds;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Fig. 11",
                  "rack recharge power during a charging-current "
                  "override (20 s actuation lag)");

    power::Rack rack(0, "rack", power::Priority::P2,
                     battery::makeVariableCharger());
    rack.setItDemand(util::kilowatts(6.3));
    sim::EventQueue queue;
    dynamo::RackAgent agent(rack, queue, Seconds(20.0));

    util::TimeSeries recharge(Seconds(0.0), Seconds(1.0));
    bool override_sent = false;
    double command_at = -1.0;
    double stabilized_at = -1.0;
    sim::PeriodicTask physics(queue, sim::toTicks(Seconds(1.0)),
                              [&](sim::Tick now) {
        double t = sim::toSeconds(now).value();
        // Open transition from t=35 s to t=70 s.
        if (t == 35.0)
            rack.loseInputPower();
        if (t == 70.0)
            rack.restoreInputPower();
        rack.step(Seconds(1.0));
        recharge.append(rack.rechargePower().value());
        // Leaf-controller behaviour: on first observed recharge
        // power, compute the SLA current (1 A for this P2 rack) and
        // command the override.
        if (!override_sent && rack.rechargePower().value() > 0.0) {
            agent.commandOverride(Amperes(1.0));
            override_sent = true;
            command_at = t;
        }
        if (override_sent && stabilized_at < 0.0
            && std::abs(rack.shelf().chargeSetpoint().value() - 1.0)
                   < 1e-9) {
            stabilized_at = t;
        }
    });
    physics.start(0);
    queue.runUntil(sim::toTicks(Seconds(180.0)));

    util::ChartSeries series = util::seriesFromTimeSeries(
        recharge, "rack BBU recharge power", '*', 1.0, 1.0);
    util::ChartOptions options;
    options.title = "Rack recharge power (fine grain)";
    options.xLabel = "time (seconds)";
    options.yLabel = "power (W)";
    std::printf("%s\n", util::renderChart({series}, options).c_str());

    std::printf("open transition:        t=35 s .. 70 s\n");
    std::printf("override commanded at:  t=%.0f s (first recharge "
                "power observed)\n",
                command_at);
    std::printf("setpoint stabilized at: t=%.0f s — %.0f s after the "
                "command (paper: ~20 s)\n",
                stabilized_at, stabilized_at - command_at);
    std::printf("power before override:  %s (2 A variable-charger "
                "default)\n",
                bench::fmtKw(util::Watts(recharge.sample(
                                 Seconds(command_at + 10.0))))
                    .c_str());
    std::printf("power after override:   %s (1 A SLA current)\n",
                bench::fmtKw(util::Watts(recharge.sample(
                                 Seconds(stabilized_at + 10.0))))
                    .c_str());
    observability.finish();
    return 0;
}

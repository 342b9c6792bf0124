/**
 * @file
 * Reproduces Fig. 7: the variable-charger production validation. An
 * RPP feeding a 14-rack test row is opened for 60 seconds; the BBUs
 * end up ~20% discharged on average, so the new charger picks 2 A and
 * the row's recharge spike is ~10 kW — versus the >26 kW the original
 * 5 A charger would have drawn (a 60% reduction).
 */

#include <cstdio>

#include "bench_common.h"
#include "power/topology.h"
#include "sim/event_queue.h"
#include "util/ascii_chart.h"
#include "util/random.h"

using namespace dcbatt;
using util::Seconds;
using util::Watts;

namespace {

/** Run the row test with one charger policy; return RPP power (1 s). */
util::TimeSeries
runRow(std::shared_ptr<const battery::ChargerPolicy> policy)
{
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Rpp;
    spec.rootName = "testrow";
    spec.racksPerRpp = 14;
    auto topo = power::Topology::build(spec, std::move(policy));

    // Rack loads around 6.6 kW so a 60 s open transition lands at
    // ~20% average DOD (the paper's measured value).
    util::Rng rng(99);
    for (power::Rack *rack : topo.racks()) {
        rack->setItDemand(
            util::kilowatts(6.6 + rng.uniform(-1.2, 1.2)));
    }

    sim::EventQueue queue;
    topo.scheduleOpenTransition(queue, topo.root(),
                                sim::toTicks(Seconds(120.0)),
                                sim::toTicks(Seconds(60.0)));
    util::TimeSeries rpp_power(Seconds(0.0), Seconds(1.0));
    sim::PeriodicTask physics(queue, sim::toTicks(Seconds(1.0)),
                              [&](sim::Tick) {
                                  topo.stepRacks(Seconds(1.0));
                                  rpp_power.append(
                                      topo.root().inputPower().value());
                              });
    physics.start(0);
    queue.runUntil(sim::toTicks(util::minutes(60.0)));
    return rpp_power;
}

} // namespace

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Fig. 7",
                  "RPP power during the variable-charger production "
                  "validation (14-rack row, 60 s open transition)");

    util::TimeSeries variable =
        runRow(battery::makeVariableCharger());
    util::TimeSeries original =
        runRow(battery::makeOriginalCharger());

    util::ChartOptions options;
    options.title = "RPP power (14-rack test row)";
    options.xLabel = "time (minutes)";
    options.yLabel = "power (kW)";
    auto var_series = util::seriesFromTimeSeries(
        variable.downsample(30), "variable charger", 'v', 1.0 / 60.0,
        1e-3);
    auto orig_series = util::seriesFromTimeSeries(
        original.downsample(30), "original 5A charger", 'o',
        1.0 / 60.0, 1e-3);
    std::printf("%s\n",
                util::renderChart({orig_series, var_series}, options)
                    .c_str());

    double baseline = variable[100];
    double var_spike = variable.maxValue() - baseline;
    double orig_spike = original.maxValue() - baseline;
    std::printf("row IT load:                    %s\n",
                bench::fmtKw(Watts(baseline)).c_str());
    std::printf("recharge spike, variable:       %s "
                "(paper: ~10 kW)\n",
                bench::fmtKw(Watts(var_spike)).c_str());
    std::printf("recharge spike, original 5 A:   %s "
                "(paper: >26 kW)\n",
                bench::fmtKw(Watts(orig_spike)).c_str());
    std::printf("reduction:                      %.0f%% "
                "(paper: 60%%)\n",
                (1.0 - var_spike / orig_spike) * 100.0);
    observability.finish();
    return 0;
}

/**
 * @file
 * Reproduces Fig. 10: the prototype experiment. A leaf controller
 * watches a 17-rack row (9 P1, 5 P2, 3 P3); a ~5 s open transition
 * leaves the BBUs at <5% DOD; the controller computes SLA charging
 * currents (2 A for P1, 1 A for P2/P3 per Fig. 9(b)) and overrides
 * the variable-charger defaults. P1 racks draw ~700 W and finish
 * within their 30-minute SLA; P2/P3 draw ~350 W and finish within
 * the hour.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/priority_aware_coordinator.h"
#include "dynamo/controller.h"
#include "power/topology.h"
#include "util/ascii_chart.h"
#include "util/random.h"

using namespace dcbatt;
using power::Priority;
using util::Seconds;
using util::Watts;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Fig. 10",
                  "prototype: leaf-controller coordinated charging of "
                  "a 17-rack row after a 5 s open transition");

    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Rpp;
    spec.rootName = "row";
    spec.racksPerRpp = 17;
    // 9 P1, 5 P2, 3 P3 as in the paper's test row.
    spec.priorities = power::makePriorityMix(9, 5, 3);
    auto topo = power::Topology::build(spec,
                                       battery::makeVariableCharger());

    util::Rng rng(4);
    for (power::Rack *rack : topo.racks())
        rack->setItDemand(util::kilowatts(6.0 + rng.uniform(-1.0, 1.0)));

    sim::EventQueue queue;
    core::SlaCurrentCalculator calc(battery::ChargeTimeModel(),
                                    core::SlaTable::paperDefault());
    core::PriorityAwareCoordinator coordinator(std::move(calc));
    dynamo::ControlPlane plane(topo, topo.root(), queue, &coordinator);
    plane.start();

    // Open transition at 09:43 (sim t=60 s) for ~5 seconds.
    topo.scheduleOpenTransition(queue, topo.root(),
                                sim::toTicks(Seconds(60.0)),
                                sim::toTicks(Seconds(5.0)));

    // Track each priority class's aggregate recharge power.
    util::TimeSeries p1(Seconds(0.0), Seconds(1.0));
    util::TimeSeries p2(Seconds(0.0), Seconds(1.0));
    util::TimeSeries p3(Seconds(0.0), Seconds(1.0));
    std::vector<double> done_minutes(17, -1.0);
    sim::PeriodicTask physics(queue, sim::toTicks(Seconds(1.0)),
                              [&](sim::Tick now) {
        topo.stepRacks(Seconds(1.0));
        Watts by_pri[3] = {Watts(0.0), Watts(0.0), Watts(0.0)};
        for (power::Rack *rack : topo.racks()) {
            by_pri[power::priorityIndex(rack->priority())] +=
                rack->rechargePower();
            if (done_minutes[static_cast<size_t>(rack->id())] < 0.0
                && sim::toSeconds(now).value() > 70.0
                && rack->shelf().fullyCharged()) {
                done_minutes[static_cast<size_t>(rack->id())] =
                    (sim::toSeconds(now).value() - 65.0) / 60.0;
            }
        }
        p1.append(by_pri[0].value());
        p2.append(by_pri[1].value());
        p3.append(by_pri[2].value());
    });
    physics.start(0);
    queue.runUntil(sim::toTicks(util::minutes(75.0)));

    util::ChartOptions options;
    options.title = "Aggregate BBU recharge power by priority";
    options.xLabel = "time (minutes)";
    options.yLabel = "recharge power (kW)";
    std::printf("%s\n",
                util::renderChart(
                    {util::seriesFromTimeSeries(p1.downsample(30),
                                                "9 P1 racks", '1',
                                                1.0 / 60.0, 1e-3),
                     util::seriesFromTimeSeries(p2.downsample(30),
                                                "5 P2 racks", '2',
                                                1.0 / 60.0, 1e-3),
                     util::seriesFromTimeSeries(p3.downsample(30),
                                                "3 P3 racks", '3',
                                                1.0 / 60.0, 1e-3)},
                    options)
                    .c_str());

    // Per-rack steady recharge power shortly after the overrides land.
    size_t sample_at = p1.indexAt(Seconds(60.0 + 5.0 + 60.0));
    std::printf("per-rack recharge power ~1 min after overrides:\n");
    std::printf("  P1: %.0f W/rack (paper: ~700 W at 2 A)\n",
                p1[sample_at] / 9.0);
    std::printf("  P2: %.0f W/rack (paper: ~350 W at 1 A)\n",
                p2[sample_at] / 5.0);
    std::printf("  P3: %.0f W/rack (paper: ~350 W at 1 A)\n",
                p3[sample_at] / 3.0);

    double p1_worst = 0.0, p23_worst = 0.0;
    for (power::Rack *rack : topo.racks()) {
        double minutes = done_minutes[static_cast<size_t>(rack->id())];
        if (rack->priority() == Priority::P1)
            p1_worst = std::max(p1_worst, minutes);
        else
            p23_worst = std::max(p23_worst, minutes);
    }
    std::printf("slowest P1 completion:   %.1f min "
                "(paper: within ~30 min)\n",
                p1_worst);
    std::printf("slowest P2/P3 completion: %.1f min "
                "(paper: within the hour)\n",
                p23_worst);
    std::printf("note: a deficit-based pack model refills a <5%% DOD "
                "battery faster than the production\n"
                "packs' measured wall time; the SLA outcomes match "
                "(see EXPERIMENTS.md).\n");
    observability.finish();
    return 0;
}

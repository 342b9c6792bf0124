/**
 * @file
 * Reproduces Table I: component failure and repair times, plus a
 * Monte Carlo validation that the simulated event rates match the
 * published MTBFs.
 */

#include <cstdio>

#include "bench_common.h"
#include "reliability/aor_simulator.h"
#include "reliability/failure_data.h"
#include "util/text_table.h"

using namespace dcbatt;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Table I", "component failure and repair times");

    auto data = reliability::paperFailureData();
    util::TextTable table({"Failure type", "Component", "MTBF (h)",
                           "MTTR (h)", "effect", "events/yr"});
    for (const auto &proc : data) {
        table.addRow({proc.failureType, proc.component,
                      util::strf("%.3g", proc.mtbfHours),
                      util::strf("%.1f", proc.mttrHours),
                      proc.effect
                              == reliability::FailureEffect::Outage
                          ? "outage"
                          : "2 open transitions",
                      util::strf("%.3f", 8760.0 / proc.mtbfHours)});
    }
    std::printf("%s\n", table.render().c_str());

    double rate = reliability::totalEventsPerYear(data);
    std::printf("total failures/year:            %.2f\n", rate);

    reliability::AorConfig config;
    config.years = 5e3;
    reliability::AorSimulator sim(data, config);
    auto result = sim.aorForChargeTime(util::minutes(30.0));
    std::printf("simulated loss episodes/year:   %.2f "
                "(~2 per failure: the paired open transitions)\n",
                result.lossEventsPerYear);
    std::printf("simulated dark hours/year:      %.2f\n",
                result.darkHoursPerYear);
    observability.finish();
    return 0;
}

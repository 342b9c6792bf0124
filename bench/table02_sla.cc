/**
 * @file
 * Reproduces Table II: the charging-time SLA per rack priority, with
 * the Monte Carlo-measured AOR for each SLA charge time alongside the
 * paper's target values.
 */

#include <cstdio>

#include "bench_common.h"
#include "core/sla.h"
#include "reliability/aor_simulator.h"
#include "util/text_table.h"

using namespace dcbatt;
using power::Priority;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Table II",
                  "charging time SLA for different rack priority");

    core::SlaTable sla = core::SlaTable::paperDefault();
    reliability::AorConfig config;
    config.years = 3e4;
    reliability::AorSimulator sim(reliability::paperFailureData(),
                                  config);

    util::TextTable table({"Rack priority", "AOR target",
                           "AOR measured", "Loss of redundancy (h/yr)",
                           "Charging time SLA"});
    const char *names[] = {"P1 (high)", "P2 (normal)", "P3 (low)"};
    for (Priority p : power::kAllPriorities) {
        auto entry = sla.entry(p);
        auto measured = sim.aorForChargeTime(entry.chargeTimeSla);
        table.addRow(
            {names[power::priorityIndex(p)],
             util::strf("%.2f%%", entry.targetAor * 100.0),
             util::strf("%.3f%%", measured.aor * 100.0),
             util::strf("%.2f (target %.2f)",
                        measured.lossOfRedundancyHoursPerYear,
                        sla.lossOfRedundancyHoursPerYear(p)),
             bench::fmtMin(entry.chargeTimeSla)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Paper Table II: P1 99.94%% / 5.26 h/yr / 30 min; "
                "P2 99.90%% / 8.76 h/yr / 60 min;\n"
                "P3 99.85%% / 13.14 h/yr / 90 min.\n");
    observability.finish();
    return 0;
}

/**
 * @file
 * Extension experiment: postponed charging (the paper's stated future
 * work — "we plan to explore postponing of battery charging, which
 * would allow us to further relax the AOR for lower priority racks").
 *
 * Below a ~2.22 MW limit the fleet's 1 A charging floors (316 racks x
 * 384 W = 121 kW) no longer fit the available power and the paper's
 * algorithm must fall back to server capping. With postponement the
 * coordinator instead *holds* lowest-priority racks entirely and
 * resumes them as higher-priority racks finish: servers are never
 * touched, at the cost of longer P3 redundancy-restoration times.
 */

#include <cstdio>

#include "bench_common.h"
#include "util/text_table.h"

using namespace dcbatt;
using core::PolicyKind;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Extension: postponed charging",
                  "capping vs postponement below the 1 A floor "
                  "budget (medium discharge)");

    util::TextTable table(
        {"limit (MW)", "variant", "max cap (kW)", "racks postponed",
         "P1 met (89)", "P2 met (142)", "P3 met (85)"});
    for (double limit : {2.26, 2.22, 2.18, 2.14, 2.10}) {
        for (bool postpone : {false, true}) {
            auto config = bench::paperEventConfig(
                PolicyKind::PriorityAware, util::megawatts(limit),
                0.5);
            config.priorityAwareOptions.allowPostponement = postpone;
            config.postEventDuration = util::minutes(140.0);
            auto result = core::runChargingEvent(
                config, bench::paperMsbTraces());
            int held = 0;
            for (const auto &rack : result.racks)
                held += rack.everHeld ? 1 : 0;
            table.addRow(
                {util::strf("%.2f", limit),
                 postpone ? "postponement" : "paper (capping)",
                 util::strf("%.0f", util::toKilowatts(result.maxCap)),
                 util::strf("%d", held),
                 util::strf("%d", result.slaMetByPriority[0]),
                 util::strf("%d", result.slaMetByPriority[1]),
                 util::strf("%d", result.slaMetByPriority[2])});
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Reading the table: below ~2.22 MW the paper's algorithm "
        "needs server capping\n(performance impact); postponement "
        "trades it for held P3 racks — no capping at\nany limit, "
        "same P1/P2 protection, lower P3 redundancy while held. "
        "This is the\nAOR relaxation for lower priorities the paper "
        "anticipated.\n");
    observability.finish();
    return 0;
}

/**
 * @file
 * Extension experiment: charger-aware AOR.
 *
 * Fig. 9(a) sweeps a *fixed* battery charge time. In reality the
 * recharge after each power-loss episode depends on how deep the
 * discharge was (episode length x rack load) and which charger the
 * fleet runs. This bench closes that loop: it feeds the CC-CV
 * charge-time model into the Monte Carlo timeline and reports the AOR
 * a rack actually sees under the original charger, the variable
 * charger, and the coordinated SLA currents of each priority.
 */

#include <algorithm>
#include <cstdio>

#include "battery/charge_time_model.h"
#include "battery/charger_policy.h"
#include "bench_common.h"
#include "core/sla_current.h"
#include "reliability/aor_simulator.h"
#include "util/text_table.h"

using namespace dcbatt;
using reliability::LossInterval;
using util::Seconds;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Extension: charger-aware AOR",
                  "AOR from episode-dependent recharge times instead "
                  "of a fixed sweep value");

    reliability::AorConfig config;
    config.years = 3e4;
    reliability::AorSimulator sim(reliability::paperFailureData(),
                                  config);

    battery::ChargeTimeModel model;
    const util::Watts rack_load = util::kilowatts(6.3);
    const util::Watts per_bbu =
        rack_load / static_cast<double>(model.params().bbusPerRack);
    auto dod_of = [&](const LossInterval &loss) {
        double dod = (per_bbu * Seconds(loss.durationSeconds)).value()
            / model.params().fullDischargeEnergy.value();
        return std::clamp(dod, 0.0, 1.0);
    };

    util::TextTable table({"fleet / policy", "AOR",
                           "loss of redundancy (h/yr)"});

    // Original charger: always 5 A.
    auto original = sim.aorForChargeModel([&](const LossInterval &l) {
        return model.chargeTime(dod_of(l), util::Amperes(5.0));
    });
    table.addRow({"original 5 A charger",
                  util::strf("%.4f%%", original.aor * 100.0),
                  util::strf("%.2f",
                             original.lossOfRedundancyHoursPerYear)});

    // Variable charger: Eq. 1 current from the episode's DOD.
    battery::VariableChargerPolicy variable;
    auto var = sim.aorForChargeModel([&](const LossInterval &l) {
        double dod = dod_of(l);
        return model.chargeTime(dod, variable.initialCurrent(dod));
    });
    table.addRow({"variable charger (Eq. 1)",
                  util::strf("%.4f%%", var.aor * 100.0),
                  util::strf("%.2f",
                             var.lossOfRedundancyHoursPerYear)});

    // Coordinated: each priority charges at its SLA current.
    core::SlaCurrentCalculator calc(model,
                                    core::SlaTable::paperDefault());
    for (power::Priority p : power::kAllPriorities) {
        auto result = sim.aorForChargeModel(
            [&](const LossInterval &l) {
                double dod = dod_of(l);
                return model.chargeTime(
                    dod, calc.requiredCurrent(dod, p));
            });
        table.addRow(
            {util::strf("coordinated, %s SLA current", toString(p)),
             util::strf("%.4f%%", result.aor * 100.0),
             util::strf("%.2f",
                        result.lossOfRedundancyHoursPerYear)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf(
        "Reading the table: most episodes are ~45 s open transitions "
        "(DOD a few percent),\nso every charger spends its time in "
        "the flat CV region — the variable charger\ngives up almost "
        "no AOR versus the 5 A original while cutting the recharge "
        "spike\n60%%, and the coordinated SLA currents land each "
        "priority close to its Table II\ntarget without the "
        "fixed-charge-time approximation.\n");
    observability.finish();
    return 0;
}

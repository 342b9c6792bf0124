/**
 * @file
 * Reproduces Fig. 14: the number of racks (by priority) whose
 * charging-time SLA is met, for the priority-aware algorithm vs the
 * global equal-rate baseline, as the MSB power limit falls from
 * 2.6 MW to 2.2 MW, at medium (50%) and high (70%) battery
 * discharge.
 *
 * The 36 (discharge, policy, limit) events are independent full
 * charging events; they fan out across the SweepRunner pool
 * (--threads N) and print in fixed order afterwards.
 */

#include <cstdio>

#include "bench_common.h"
#include "util/text_table.h"

using namespace dcbatt;
using core::PolicyKind;

int
main(int argc, char **argv)
{
    unsigned threads = 0;
    auto observability = bench::parseBenchArgs(argc, argv, &threads);
    util::ThreadPool pool(threads);
    bench::banner("Fig. 14",
                  "racks meeting the charging-time SLA vs MSB power "
                  "limit (priority-aware vs global)");

    const double dods[] = {0.5, 0.7};
    const char *discharge_names[] = {"medium", "high"};
    const PolicyKind policies[] = {PolicyKind::PriorityAware,
                                   PolicyKind::GlobalRate};
    const char *panel[] = {"(a)", "(b)", "(c)", "(d)"};

    std::vector<double> limits;
    for (double limit = 2.6; limit >= 2.2 - 1e-9; limit -= 0.05)
        limits.push_back(limit);

    sim::SweepRunner runner(pool);

    std::vector<sim::SweepTask> tasks;
    for (size_t d = 0; d < 2; ++d) {
        for (PolicyKind policy : policies) {
            for (double limit : limits) {
                sim::SweepTask task;
                task.label = util::strf("%s/%.2fMW",
                                        core::toString(policy), limit);
                task.config = bench::paperEventConfig(
                    policy, util::megawatts(limit), dods[d]);
                task.config.postEventDuration = util::minutes(100.0);
                task.traces = &bench::paperMsbTraces();
                tasks.push_back(std::move(task));
            }
        }
    }
    auto results = runner.run(tasks);

    size_t idx = 0;
    int panel_idx = 0;
    for (size_t d = 0; d < 2; ++d) {
        for (PolicyKind policy : policies) {
            std::printf("\n--- Fig. 14 %s: %s, %s discharge ---\n",
                        panel[panel_idx++], core::toString(policy),
                        discharge_names[d]);
            util::TextTable table({"limit (MW)", "P1 met (of 89)",
                                   "P2 met (of 142)",
                                   "P3 met (of 85)", "total",
                                   "max cap (kW)"});
            for (double limit : limits) {
                const auto &result = results[idx++];
                table.addRow(
                    {util::strf("%.2f", limit),
                     util::strf("%d", result.slaMetByPriority[0]),
                     util::strf("%d", result.slaMetByPriority[1]),
                     util::strf("%d", result.slaMetByPriority[2]),
                     util::strf("%d", result.slaMetTotal()),
                     util::strf("%.0f",
                                util::toKilowatts(result.maxCap))});
            }
            std::printf("%s", table.render().c_str());
        }
    }

    std::printf(
        "\nPaper shape checks:\n"
        " - priority-aware preserves P1 SLAs longest as the limit "
        "falls; P3 is throttled\n   first but its 90-min SLA is still "
        "met at the 1 A floor (so P2 counts drop\n   before P3 "
        "counts, exactly the paper's Fig. 14(a) observation);\n"
        " - the global baseline penalizes P1 first (highest current "
        "demand), then P2;\n"
        " - server capping appears only when the limit approaches the "
        "IT load plus the\n   316-rack 1 A floor (~120 kW).\n");
    observability.finish();
    return 0;
}

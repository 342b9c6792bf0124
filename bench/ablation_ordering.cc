/**
 * @file
 * Ablation of the design choices inside Algorithm 1 (DESIGN.md §5):
 *
 *  - grant order: (priority, DOD) vs priority-only vs DOD-only,
 *  - strict in-order greedy (the paper's Algorithm 1) vs skip-greedy,
 *  - restore-on-headroom (this repo's extension of the paper's
 *    "future work" direction: re-granting demoted racks as power
 *    frees up).
 *
 * Run at a constrained 2.3 MW limit and medium discharge, where the
 * grant budget cannot cover every rack's SLA current. The five
 * variants are independent events and fan out across the SweepRunner
 * pool (--threads N).
 */

#include <cstdio>

#include "bench_common.h"
#include "util/text_table.h"

using namespace dcbatt;
using core::PolicyKind;
using core::PriorityAwareOptions;

int
main(int argc, char **argv)
{
    unsigned threads = 0;
    auto observability = bench::parseBenchArgs(argc, argv, &threads);
    util::ThreadPool pool(threads);
    bench::banner("Ablation",
                  "Algorithm 1 ordering and greedy variants "
                  "(limit 2.3 MW, medium discharge)");

    struct Variant
    {
        const char *name;
        PriorityAwareOptions options;
    };
    std::vector<Variant> variants;
    variants.push_back({"paper (priority, DOD, strict)", {}});
    {
        PriorityAwareOptions o;
        o.ignoreDod = true;
        variants.push_back({"priority only (ignore DOD)", o});
    }
    {
        PriorityAwareOptions o;
        o.ignorePriority = true;
        variants.push_back({"DOD only (ignore priority)", o});
    }
    {
        PriorityAwareOptions o;
        o.strictGreedy = false;
        variants.push_back({"skip-greedy", o});
    }
    {
        PriorityAwareOptions o;
        o.restoreOnHeadroom = true;
        variants.push_back({"restore on headroom (extension)", o});
    }

    sim::SweepRunner runner(pool);

    std::vector<sim::SweepTask> tasks;
    for (const Variant &variant : variants) {
        sim::SweepTask task;
        task.label = variant.name;
        task.config = bench::paperEventConfig(
            PolicyKind::PriorityAware, util::megawatts(2.3), 0.5);
        task.config.priorityAwareOptions = variant.options;
        task.config.postEventDuration = util::minutes(100.0);
        task.traces = &bench::paperMsbTraces();
        tasks.push_back(std::move(task));
    }
    auto results = runner.run(tasks);

    util::TextTable table({"variant", "P1 met (89)", "P2 met (142)",
                           "P3 met (85)", "total", "max cap (kW)"});
    for (size_t v = 0; v < variants.size(); ++v) {
        const auto &result = results[v];
        table.addRow({variants[v].name,
                      util::strf("%d", result.slaMetByPriority[0]),
                      util::strf("%d", result.slaMetByPriority[1]),
                      util::strf("%d", result.slaMetByPriority[2]),
                      util::strf("%d", result.slaMetTotal()),
                      util::strf("%.0f",
                                 util::toKilowatts(result.maxCap))});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Reading the ablation:\n"
        " - ignoring DOD wastes budget on deep-discharge racks and "
        "lowers the per-class\n   counts (the paper's "
        "lowest-discharge-first tiebreak is what maximizes them);\n"
        " - ignoring priority trades P1 misses for cheap P2/P3 "
        "grants — more total SLAs,\n   but the wrong ones;\n"
        " - skip-greedy and restore-on-headroom recover some grants "
        "the strict paper\n   algorithm leaves on the table.\n");
    observability.finish();
    return 0;
}

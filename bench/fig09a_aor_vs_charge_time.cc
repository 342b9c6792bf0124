/**
 * @file
 * Reproduces Fig. 9(a): availability of redundancy (AOR) of rack
 * power versus battery charging time, by Monte Carlo over the Table I
 * failure processes (Fig. 8 state machine, 10^5 simulated years).
 *
 * The horizon is split into --shards independent sub-histories (each
 * seeded by a counter-based substream of the seed), generated and
 * walked on --threads lanes: this thread plus --threads - 1 workers,
 * as in dcbatt_region. The shard count is part of the experiment (it
 * selects the sampled history); the lane count is not — output is
 * byte-identical at any lane count for the same (seed, shards,
 * years). `--shards 1` is the legacy serial timeline.
 */

#include <climits>
#include <cstdio>
#include <optional>

#include "bench_common.h"
#include "reliability/aor_simulator.h"
#include "util/ascii_chart.h"
#include "util/text_table.h"

using namespace dcbatt;
using util::minutes;

int
main(int argc, char **argv)
{
    // The paper simulates 1e5 years; default to 3e4 here to keep the
    // bench quick (pass --years to override).
    reliability::AorConfig config;
    config.years = 3e4;
    config.shards = 64;
    unsigned threads = 0;
    auto observability =
        bench::parseBenchArgs(argc, argv, &threads, [&](cli::Flags &flags) {
            flags.addDouble("--years", &config.years,
                            "Monte Carlo horizon (default 30000)");
            flags.addInt("--shards", &config.shards,
                         "AOR shards; 1 is the serial timeline (default 64)",
                         1, INT_MAX);
        });
    if (config.years <= 0.0)
        util::fatal("--years must be positive");
    // The simulator's parallelFor works on this thread too, so N
    // lanes take N - 1 workers.
    std::optional<util::ThreadPool> pool;
    if (threads > 1)
        pool.emplace(threads - 1);

    bench::banner("Fig. 9(a)",
                  "AOR of rack power vs battery charging time "
                  "(Monte Carlo)");

    reliability::AorSimulator sim(reliability::paperFailureData(),
                                  config, pool ? &*pool : nullptr);
    std::printf("simulated horizon: %.0f years in %d shards, %.2f "
                "power-loss episodes/year\n\n",
                config.years, config.shards,
                sim.aorForChargeTime(minutes(30.0)).lossEventsPerYear);

    util::TextTable table({"charge time (min)", "AOR (%)",
                           "loss of redundancy (h/yr)"});
    util::ChartSeries series{"AOR", '*', {}, {}};
    for (double m = 10.0; m <= 120.0; m += 10.0) {
        auto result = sim.aorForChargeTime(minutes(m));
        table.addRow({util::strf("%.0f", m),
                      util::strf("%.4f", result.aor * 100.0),
                      util::strf("%.2f",
                                 result.lossOfRedundancyHoursPerYear)});
        series.xs.push_back(m);
        series.ys.push_back(result.aor * 100.0);
    }
    std::printf("%s\n", table.render().c_str());

    util::ChartOptions chart_options;
    chart_options.title = "AOR vs battery charging time";
    chart_options.xLabel = "battery charging time (min)";
    chart_options.yLabel = "AOR (%)";
    std::printf("%s\n",
                util::renderChart({series}, chart_options).c_str());

    std::printf("Paper anchors: AOR(30 min) = 99.94%%, AOR(60 min) = "
                "99.90%%, AOR(90 min) = 99.85%%;\nAOR decreases "
                "~linearly with charging time.\n");
    observability.finish();
    return 0;
}

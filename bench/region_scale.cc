/**
 * @file
 * Region-scale benchmark: wall time, peak RSS, and thread scaling of
 * sim::runRegion.
 *
 * Times one region spec at one lane and at --threads lanes (the
 * calling thread counts as one, RegionRunOptions::threads) and
 * verifies the results are identical (the determinism contract is
 * exercised on every bench run, not only in tests). A ceiling probe
 * runs --threads one-lane copies at once through
 * util::ThreadPool::submit: their throughput over one copy's is the
 * speedup this host can give independent work, the ceiling the
 * scaling efficiency is reported against. Each of the three timings
 * is the best of three interleaved rounds. The *simulation*
 * summary goes to stdout and is byte-identical regardless of thread
 * count or machine; the *performance* numbers (walls, RSS, scaling
 * efficiency) are nondeterministic by nature and therefore go to
 * stderr and, when --perf-json is given, a JSON side file that
 * tools/bench_to_json.sh merges into BENCH_perf.json and
 * tools/check_region_scaling.py gates in CI.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "power/region_spec.h"
#include "sim/region_engine.h"
#include "util/logging.h"
#include "util/text_table.h"
#include "util/thread_pool.h"
#include "util/units.h"

using namespace dcbatt;

namespace {

double
wallSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Wall time of one call of @p run. */
template <typename Run>
double
timed(Run &&run)
{
    auto start = std::chrono::steady_clock::now();
    run();
    return wallSeconds(start);
}

/** Process peak RSS in MiB (ru_maxrss is KiB on Linux). */
double
peakRssMib()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Options
{
    int msbs = 8;
    int racksPerMsb = 150;
    double hours = 2.0;
    unsigned threads = 0;  // 0: hardware concurrency
    std::string perfJsonPath;
};

Options
parseOptions(int argc, char **argv)
{
    Options options;
    cli::Flags flags;
    flags.addInt("--msbs", &options.msbs, "MSB count (default 8)", 1,
                 INT_MAX);
    flags.addInt("--racks-per-msb", &options.racksPerMsb,
                 "racks per MSB (default 150)", 1, INT_MAX);
    flags.addDouble("--hours", &options.hours,
                    "simulated hours (default 2)");
    flags.addInt("--threads", &options.threads,
                 "lanes of the second run, this thread included,\n"
                 "and copies in the ceiling probe (default:\n"
                 "hardware concurrency)",
                 0, INT_MAX);
    flags.addString("--perf-json", &options.perfJsonPath, "PATH",
                    "write walls, speedup and peak RSS as JSON");
    flags.parse(argc, argv);
    if (options.threads == 0) {
        options.threads =
            std::max(1u, std::thread::hardware_concurrency());
    }
    return options;
}

power::RegionSpec
makeSpec(const Options &options)
{
    power::RegionSpec spec;
    spec.msbs = options.msbs;
    spec.racksPerMsb = options.racksPerMsb;
    spec.suitesPerBuilding = std::min(4, options.msbs);
    spec.duration = util::hours(options.hours);
    // Scale the per-MSB load model with the rack count so the fleet
    // stays at the paper's ~6.7 kW/rack operating point.
    double rack_share = static_cast<double>(options.racksPerMsb) / 300.0;
    spec.msbAggregateMean = util::Watts(2.0e6 * rack_share);
    spec.msbAggregateAmplitude = util::Watts(0.15e6 * rack_share);
    spec.msbLimit = util::Watts(2.5e6 * rack_share);
    spec.firstOutage = util::minutes(20.0);
    spec.outageStagger =
        util::Seconds(options.hours * 3600.0 * 0.25
                      / std::max(1, options.msbs));
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseOptions(argc, argv);
    power::RegionSpec spec = makeSpec(options);

    bench::banner(
        "region scale",
        "wall time / peak RSS / thread scaling of sim::runRegion");

    sim::RegionRunOptions run_one;
    run_one.threads = 1;
    sim::RegionRunOptions run_many;
    run_many.threads = options.threads;
    sim::RegionResult base;
    sim::RegionResult threaded;
    util::ThreadPool probe(options.threads);
    bool probe_agrees = true;
    // Three rounds of the three timings, best of each: one hiccup of
    // a shared host should not move the scaling gate, and interleaving
    // keeps a slow spell from landing on one timing only.
    double wall_one = std::numeric_limits<double>::infinity();
    double wall_many = wall_one;
    double wall_ceiling = wall_one;
    double rss_mib = 0.0;
    for (int round = 0; round < 3; ++round) {
        wall_one = std::min(wall_one, timed([&] {
            base = sim::runRegion(spec, run_one);
        }));
        wall_many = std::min(wall_many, timed([&] {
            threaded = sim::runRegion(spec, run_many);
        }));
        // Peak RSS of the single runs, read before the first probe so
        // its copies do not count against one run's memory bound.
        if (round == 0)
            rss_mib = peakRssMib();
        // Ceiling probe: --threads independent one-lane runs at once.
        if (options.threads == 1)
            continue;
        wall_ceiling = std::min(wall_ceiling, timed([&] {
            std::vector<std::future<double>> copies;
            for (unsigned i = 0; i < options.threads; ++i) {
                copies.push_back(probe.submit([&spec, &run_one] {
                    return sim::runRegion(spec, run_one).peakRegionMw;
                }));
            }
            for (std::future<double> &copy : copies)
                probe_agrees = copy.get() == base.peakRegionMw
                    && probe_agrees;
        }));
    }
    if (options.threads == 1)
        wall_ceiling = wall_one;

    // The determinism contract, checked on every bench run.
    if (base.peakRegionMw != threaded.peakRegionMw
        || base.grantMw.values() != threaded.grantMw.values()
        || base.regionPowerMw.values()
            != threaded.regionPowerMw.values()) {
        std::fprintf(stderr,
                     "FATAL: threads=1 and threads=%u disagree\n",
                     options.threads);
        return 1;
    }
    if (!probe_agrees) {
        std::fprintf(stderr, "FATAL: a ceiling-probe copy disagrees\n");
        return 1;
    }
    // Throughput of the concurrent copies over one copy's.
    double ceiling = wall_ceiling > 0.0
        ? static_cast<double>(options.threads) * wall_one / wall_ceiling
        : 0.0;

    int sla_met = 0;
    int outages = 0;
    for (const sim::RegionMsbOutcome &msb : base.msbs) {
        sla_met += msb.slaMetTotal();
        outages += msb.outages;
    }

    // Deterministic artifact: simulation results only.
    util::TextTable table({"metric", "value"});
    table.addRow({"MSBs", util::strf("%d", options.msbs)});
    table.addRow({"racks", util::strf("%d", base.racksTotal())});
    table.addRow({"simulated hours",
                  util::strf("%.1f", options.hours)});
    table.addRow({"peak region power",
                  util::strf("%.3f MW", base.peakRegionMw)});
    table.addRow(
        {"coordination ticks",
         util::strf("%llu",
                    (unsigned long long)base.coordinationTicks)});
    table.addRow({"SLA met (racks)", util::strf("%d", sla_met)});
    table.addRow({"battery-exhausted racks",
                  util::strf("%d", outages)});
    table.addRow({"trace peak resident",
                  util::strf("%.1f MiB",
                             static_cast<double>(
                                 base.tracePeakResidentBytes)
                                 / (1024.0 * 1024.0))});
    std::printf("%s", table.render().c_str());

    // Nondeterministic performance numbers: stderr + JSON side file.
    double speedup = wall_many > 0.0 ? wall_one / wall_many : 0.0;
    unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());
    double efficiency = ceiling > 0.0 ? speedup / ceiling : 0.0;
    std::fprintf(stderr,
                 "[region_scale] lanes 1: %.2fs  lanes %u: %.2fs  "
                 "speedup %.2fx  ceiling %.2fx  efficiency %.2f  "
                 "peak RSS %.1f MiB\n",
                 wall_one, options.threads, wall_many, speedup, ceiling,
                 efficiency, rss_mib);

    if (!options.perfJsonPath.empty()) {
        FILE *f = std::fopen(options.perfJsonPath.c_str(), "w");
        if (f == nullptr)
            util::fatal(util::strf("cannot write %s", options.perfJsonPath.c_str()));
        std::string walls =
            options.threads == 1
                ? util::strf("{\"threads_1\": %.3f}", wall_many)
                : util::strf("{\"threads_1\": %.3f, "
                             "\"threads_%u\": %.3f}",
                             wall_one, options.threads, wall_many);
        std::fprintf(
            f,
            "{\n"
            "  \"msbs\": %d,\n"
            "  \"racks\": %d,\n"
            "  \"sim_hours\": %.2f,\n"
            "  \"threads\": %u,\n"
            "  \"hardware_threads\": %u,\n"
            "  \"wall_seconds\": %s,\n"
            "  \"speedup\": %.3f,\n"
            "  \"ceiling_wall_seconds\": %.3f,\n"
            "  \"ceiling_speedup\": %.3f,\n"
            "  \"scaling_efficiency\": %.3f,\n"
            "  \"peak_rss_mib\": %.1f,\n"
            "  \"trace_peak_resident_mib\": %.2f\n"
            "}\n",
            options.msbs, base.racksTotal(), options.hours,
            options.threads, cores, walls.c_str(), speedup,
            wall_ceiling, ceiling, efficiency, rss_mib,
            static_cast<double>(base.tracePeakResidentBytes)
                / (1024.0 * 1024.0));
        std::fclose(f);
    }
    return 0;
}

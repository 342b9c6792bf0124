/**
 * @file
 * dcbatt_region — command-line driver for the region-scale simulator.
 *
 * Runs a full region (default: 50 MSBs / 15,000 racks for one
 * simulated day) through sim::runRegion and prints a region summary
 * plus a per-MSB outcome table. Stdout is a deterministic artifact:
 * byte-identical at any --threads value, which is exactly what the CI
 * region-smoke job and the differential tests diff. Anything
 * execution-dependent (thread count, wall time) goes to stderr.
 *
 *   dcbatt_region                         # the 50-MSB reference day
 *   dcbatt_region --msbs 4 --racks-per-msb 300 --duration-hours 6 \
 *                 --first-outage-hours 1 --threads 8
 *
 * `dcbatt_region --help` prints the flag list.
 */

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "cli.h"
#include "power/region_spec.h"
#include "sim/region_engine.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/text_table.h"

using namespace dcbatt;

namespace {

struct CliOptions
{
    power::RegionSpec spec;
    unsigned threads = 1;
    std::string rollupCsvPath;
    cli::Observability observability;
    bool verbose = false;
};

void
parseArgs(int argc, char **argv, CliOptions &options)
{
    power::RegionSpec &spec = options.spec;
    cli::Flags flags;
    flags.addInt("--msbs", &spec.msbs, "MSB count (default 50)");
    flags.addInt("--racks-per-msb", &spec.racksPerMsb,
                 "racks per MSB (default 300)");
    flags.addInt("--buildings", &spec.buildings,
                 "buildings in the region (default 1)");
    flags.addInt("--suites-per-building", &spec.suitesPerBuilding,
                 "suites per building (default 4)");
    flags.addDouble("--budget-mw", &spec.regionBudget,
                    "region power budget (default: 85% of the\n"
                    "summed MSB breaker ratings)",
                    1e6);
    flags.addDouble("--suite-limit-mw", &spec.suiteLimit,
                    "per-suite feeder cap (default: none)", 1e6);
    flags.addDouble("--building-limit-mw", &spec.buildingLimit,
                    "per-building feeder cap (default: none)", 1e6);
    flags.add("--mean-mw-per-msb", "X", "per-MSB mean IT load (default 2.0)",
              [&spec](const char *flag, const char *text) {
                  spec.msbAggregateMean =
                      util::megawatts(cli::parseDouble(flag, text));
                  spec.msbAggregateAmplitude =
                      spec.msbAggregateMean * 0.075;
              });
    flags.addDouble("--duration-hours", &spec.duration,
                    "simulated time (default 24)", 3600.0);
    flags.addDouble("--coordination-seconds", &spec.coordinationPeriod,
                    "budget-split cadence (default 60)");
    flags.addDouble("--physics-step", &spec.physicsStep,
                    "physics dt in seconds (default 1.0)");
    flags.addDouble("--first-outage-hours", &spec.firstOutage,
                    "staggered outage campaign start (default 2)",
                    3600.0);
    flags.addDouble("--stagger-seconds", &spec.outageStagger,
                    "per-MSB outage stagger (default 600)");
    flags.addDouble("--dod", &spec.targetMeanDod,
                    "target mean DOD (default 0.5)");
    flags.addDouble("--ot-seconds", &spec.openTransitionLength,
                    "explicit open-transition length");
    flags.addInt("--seed", &spec.seed, "region seed (default 42)");
    flags.addInt("--threads", &options.threads,
                 "lanes: threads stepping shards, this one\n"
                 "included, so N starts N-1 workers (execution\n"
                 "knob only; artifacts are identical) (default 1)",
                 1, INT_MAX);
    flags.addInt("--window-samples", &spec.windowSamples,
                 "streaming-trace window size (default 1200)");
    flags.addInt("--resident-windows", &spec.maxResidentWindows,
                 "resident-window cap (default 2)");
    flags.addDouble("--audit-seconds", &spec.auditInterval,
                    "per-MSB physical-invariant audit cadence");
    flags.addString("--rollup-csv", &options.rollupCsvPath, "PATH",
                    "write the region rollup tape as CSV");
    options.observability.addFlags(flags, 60.0);
    flags.addSwitch("--verbose", &options.verbose,
                    "debug logging on stderr");
    flags.parse(argc, argv);
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions options;
    parseArgs(argc, argv, options);
    // A bad DCBATT_SIMD or DCBATT_BATCH fails here, before any output.
    battery::resolveKernelSwitches();
    if (options.verbose)
        util::setLogLevel(util::LogLevel::Debug);
    options.observability.arm();

    const power::RegionSpec &spec = options.spec;
    sim::RegionRunOptions run;
    run.threads = options.threads;
    // Execution knobs are stderr-only: stdout must be byte-identical
    // across --threads (the CI smoke diff).
    std::fprintf(stderr, "dcbatt_region: %u lane(s)\n",
                 options.threads);

    sim::RegionResult result = sim::runRegion(spec, run);

    std::printf("dcbatt_region: %d MSBs / %d racks, budget %.1f MW "
                "(%d buildings x %d suites)\n",
                spec.msbs, result.racksTotal(),
                util::toMegawatts(power::effectiveRegionBudget(spec)),
                spec.buildings, spec.suitesPerBuilding);
    std::printf("simulated %.1f h, coordination every %.0f s, "
                "physics dt %.1f s\n\n",
                spec.duration.value() / 3600.0,
                spec.coordinationPeriod.value(),
                spec.physicsStep.value());

    int tripped = 0, outages = 0, capped = 0, held = 0;
    int overload_steps = 0;
    std::array<int, 3> sla_met{0, 0, 0};
    std::array<int, 3> racks_by_pri{0, 0, 0};
    uint64_t windows = 0, refetches = 0, evictions = 0;
    for (const sim::RegionMsbOutcome &msb : result.msbs) {
        tripped += msb.breakerTripped ? 1 : 0;
        outages += msb.outages;
        capped += msb.everCapped;
        held += msb.everHeld;
        overload_steps += msb.overloadSteps;
        for (size_t p = 0; p < 3; ++p) {
            sla_met[p] += msb.slaMetByPriority[p];
            racks_by_pri[p] += msb.racksByPriority[p];
        }
        windows += msb.traceWindowsGenerated;
        refetches += msb.traceRefetches;
        evictions += msb.traceEvictions;
    }

    util::TextTable summary({"metric", "value"});
    summary.addRow({"peak region power",
                    util::strf("%.3f MW", result.peakRegionMw)});
    summary.addRow({"coordination ticks",
                    util::strf("%llu",
                               static_cast<unsigned long long>(
                                   result.coordinationTicks))});
    summary.addRow({"budget audits",
                    util::strf("%llu",
                               static_cast<unsigned long long>(
                                   result.budgetAudits))});
    if (spec.auditInterval) {
        summary.addRow(
            {"physical-invariant audits",
             util::strf("%llu", static_cast<unsigned long long>(
                                    result.physicalAudits))});
    }
    summary.addRow({"breakers tripped", util::strf("%d", tripped)});
    summary.addRow(
        {"MSB-seconds above breaker rating",
         util::strf("%d", overload_steps)});
    for (size_t p = 0; p < 3; ++p) {
        summary.addRow({util::strf("P%zu SLAs met", p + 1),
                        util::strf("%d / %d", sla_met[p],
                                   racks_by_pri[p])});
    }
    summary.addRow({"racks with battery-exhaustion outage",
                    util::strf("%d", outages)});
    summary.addRow({"racks ever capped", util::strf("%d", capped)});
    summary.addRow({"racks ever postponed", util::strf("%d", held)});
    summary.addRow(
        {"trace windows generated (refetch/evict)",
         util::strf("%llu (%llu / %llu)",
                    static_cast<unsigned long long>(windows),
                    static_cast<unsigned long long>(refetches),
                    static_cast<unsigned long long>(evictions))});
    summary.addRow(
        {"peak resident trace bytes (all shards)",
         util::strf("%.1f MiB",
                    static_cast<double>(
                        result.tracePeakResidentBytes)
                        / (1024.0 * 1024.0))});
    std::printf("%s\n", summary.render().c_str());

    util::TextTable table({"msb", "peak MW", "grant MW (min/mean/max)",
                           "P1 met", "P2 met", "P3 met", "outage",
                           "capped", "held"});
    for (const sim::RegionMsbOutcome &msb : result.msbs) {
        table.addRow(
            {util::strf("%03d", msb.msbIndex),
             util::strf("%.3f", msb.peakMw),
             util::strf("%.2f / %.2f / %.2f", msb.minGrantMw,
                        msb.meanGrantMw, msb.maxGrantMw),
             util::strf("%d/%d", msb.slaMetByPriority[0],
                        msb.racksByPriority[0]),
             util::strf("%d/%d", msb.slaMetByPriority[1],
                        msb.racksByPriority[1]),
             util::strf("%d/%d", msb.slaMetByPriority[2],
                        msb.racksByPriority[2]),
             util::strf("%d", msb.outages),
             util::strf("%d", msb.everCapped),
             util::strf("%d", msb.everHeld)});
    }
    std::printf("%s", table.render().c_str());

    if (!options.rollupCsvPath.empty()) {
        std::vector<std::vector<std::string>> rows;
        rows.push_back({"time_s", "region_mw", "it_mw", "demand_it_mw",
                        "recharge_mw", "cap_mw", "grant_mw",
                        "unmet_mw"});
        for (size_t i = 0; i < result.regionPowerMw.size(); ++i) {
            rows.push_back({
                util::strf("%.0f",
                           result.regionPowerMw.timeAt(i).value()),
                util::strf("%.4f", result.regionPowerMw[i]),
                util::strf("%.4f", result.itMw[i]),
                util::strf("%.4f", result.demandItMw[i]),
                util::strf("%.4f", result.rechargeMw[i]),
                util::strf("%.4f", result.capMw[i]),
                util::strf("%.4f", result.grantMw[i]),
                util::strf("%.4f", result.unmetMw[i]),
            });
        }
        util::writeCsvFile(options.rollupCsvPath, rows);
        std::fprintf(stderr, "rollup tape: %s\n",
                     options.rollupCsvPath.c_str());
    }

    options.observability.finish();
    return tripped > 0 ? 2 : 0;
}

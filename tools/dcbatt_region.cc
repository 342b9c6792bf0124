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

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/chrome_trace_writer.h"
#include "obs/crash_bundle.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/time_series_recorder.h"
#include "power/region_spec.h"
#include "sim/region_engine.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/text_table.h"

using namespace dcbatt;

namespace {

const char kUsage[] = R"(usage: dcbatt_region [flags]

Flags (all optional):
  --msbs N               MSB count                    (default 50)
  --racks-per-msb N      racks per MSB                (default 300)
  --buildings N          buildings in the region      (default 1)
  --suites-per-building N                             (default 4)
  --budget-mw X          region power budget (default: 85% of the
                         summed MSB breaker ratings)
  --suite-limit-mw X     per-suite feeder cap  (default: none)
  --building-limit-mw X  per-building feeder cap (default: none)
  --mean-mw-per-msb X    per-MSB mean IT load         (default 2.0)
  --duration-hours X     simulated time               (default 24)
  --coordination-seconds X  budget-split cadence      (default 60)
  --physics-step X       physics dt in seconds        (default 1.0)
  --first-outage-hours X staggered outage campaign start (def. 2)
  --stagger-seconds X    per-MSB outage stagger       (default 600)
  --dod X                target mean DOD              (default 0.5)
  --ot-seconds X         explicit open-transition length
  --seed N               region seed                  (default 42)
  --threads N            worker threads (execution knob only;
                         artifacts are identical)     (default 1)
  --window-samples N     streaming-trace window size  (default 1200)
  --resident-windows N   resident-window cap          (default 2)
  --audit-seconds X      per-MSB physical-invariant audit cadence
  --rollup-csv PATH      write the region rollup tape as CSV
  --metrics-json PATH    deterministic metrics snapshot
  --trace-out PATH       Chrome trace of wall-clock spans
  --timeseries-out PATH  flight-recorder tape (region rollup probes)
  --timeseries-cadence SECS / --timeseries-mode decimate|ring
  --events-out PATH      structured event log (JSONL)
  --crash-dir DIR        post-mortem crash bundle directory
  --verbose              debug logging on stderr
  --help                 this list
)";

/** @p text as a whole base-10 integer in [lo, hi]; fatal otherwise. */
long long
parseInteger(const char *flag, const char *text, long long lo,
             long long hi)
{
    errno = 0;
    char *end = nullptr;
    long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || value < lo
        || value > hi) {
        util::fatal(util::strf("%s: '%s' is not an integer in [%lld, "
                               "%lld]",
                               flag, text, lo, hi));
    }
    return value;
}

/** @p text as a whole finite number; fatal otherwise. */
double
parseDouble(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE
        || !std::isfinite(value)) {
        util::fatal(util::strf("%s: '%s' is not a finite number", flag,
                               text));
    }
    return value;
}

struct CliOptions
{
    power::RegionSpec spec;
    unsigned threads = 1;
    std::string rollupCsvPath;
    std::string metricsJsonPath;
    std::string traceOutPath;
    std::string timeSeriesOutPath;
    double timeSeriesCadence = 60.0;
    std::string timeSeriesMode = "decimate";
    std::string eventsOutPath;
    std::string crashDirPath;
    bool verbose = false;
};

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions options;
    power::RegionSpec &spec = options.spec;
    auto need_value = [&](int i) -> const char * {
        if (i + 1 >= argc)
            util::fatal(util::strf("flag %s needs a value", argv[i]));
        return argv[i + 1];
    };
    // Consume the flag's value as a number, naming the flag on error.
    auto int_value = [&](int &i) {
        const char *text = need_value(i);
        return static_cast<int>(
            parseInteger(argv[i++], text, INT_MIN, INT_MAX));
    };
    auto count_value = [&](int &i) {
        const char *text = need_value(i);
        return static_cast<size_t>(
            parseInteger(argv[i++], text, 0, LLONG_MAX));
    };
    auto double_value = [&](int &i) {
        const char *text = need_value(i);
        return parseDouble(argv[i++], text);
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--msbs") {
            spec.msbs = int_value(i);
        } else if (flag == "--racks-per-msb") {
            spec.racksPerMsb = int_value(i);
        } else if (flag == "--buildings") {
            spec.buildings = int_value(i);
        } else if (flag == "--suites-per-building") {
            spec.suitesPerBuilding = int_value(i);
        } else if (flag == "--budget-mw") {
            spec.regionBudget = util::megawatts(double_value(i));
        } else if (flag == "--suite-limit-mw") {
            spec.suiteLimit = util::megawatts(double_value(i));
        } else if (flag == "--building-limit-mw") {
            spec.buildingLimit = util::megawatts(double_value(i));
        } else if (flag == "--mean-mw-per-msb") {
            spec.msbAggregateMean = util::megawatts(double_value(i));
            spec.msbAggregateAmplitude = spec.msbAggregateMean * 0.075;
        } else if (flag == "--duration-hours") {
            spec.duration = util::hours(double_value(i));
        } else if (flag == "--coordination-seconds") {
            spec.coordinationPeriod = util::Seconds(double_value(i));
        } else if (flag == "--physics-step") {
            spec.physicsStep = util::Seconds(double_value(i));
        } else if (flag == "--first-outage-hours") {
            spec.firstOutage = util::hours(double_value(i));
        } else if (flag == "--stagger-seconds") {
            spec.outageStagger = util::Seconds(double_value(i));
        } else if (flag == "--dod") {
            spec.targetMeanDod = double_value(i);
        } else if (flag == "--ot-seconds") {
            spec.openTransitionLength = util::Seconds(double_value(i));
        } else if (flag == "--seed") {
            spec.seed = count_value(i);
        } else if (flag == "--threads") {
            int threads = int_value(i);
            if (threads <= 0)
                util::fatal("--threads must be >= 1");
            options.threads = static_cast<unsigned>(threads);
        } else if (flag == "--window-samples") {
            spec.windowSamples = count_value(i);
        } else if (flag == "--resident-windows") {
            spec.maxResidentWindows = count_value(i);
        } else if (flag == "--audit-seconds") {
            double audit = double_value(i);
            if (audit <= 0.0)
                util::fatal("--audit-seconds must be positive");
            spec.auditInterval = util::Seconds(audit);
        } else if (flag == "--rollup-csv") {
            options.rollupCsvPath = need_value(i++);
        } else if (flag == "--metrics-json") {
            options.metricsJsonPath = need_value(i++);
        } else if (flag == "--trace-out") {
            options.traceOutPath = need_value(i++);
        } else if (flag == "--timeseries-out") {
            options.timeSeriesOutPath = need_value(i++);
        } else if (flag == "--timeseries-cadence") {
            options.timeSeriesCadence = double_value(i);
            if (options.timeSeriesCadence <= 0.0)
                util::fatal("--timeseries-cadence must be positive");
        } else if (flag == "--timeseries-mode") {
            options.timeSeriesMode = need_value(i++);
            if (options.timeSeriesMode != "decimate"
                && options.timeSeriesMode != "ring")
                util::fatal(
                    "--timeseries-mode must be decimate or ring");
        } else if (flag == "--events-out") {
            options.eventsOutPath = need_value(i++);
        } else if (flag == "--crash-dir") {
            options.crashDirPath = need_value(i++);
        } else if (flag == "--verbose") {
            options.verbose = true;
        } else if (flag == "--help" || flag == "-h") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else {
            util::fatal(util::strf("unknown flag: %s (try --help)",
                                   flag.c_str()));
        }
    }
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions options = parseArgs(argc, argv);
    if (options.verbose)
        util::setLogLevel(util::LogLevel::Debug);
    if (!options.traceOutPath.empty())
        obs::setTracingEnabled(true);
    if (!options.timeSeriesOutPath.empty()) {
        obs::TimeSeriesOptions ts;
        ts.cadenceSeconds = options.timeSeriesCadence;
        ts.bound = options.timeSeriesMode == "ring"
            ? obs::TimeSeriesBound::Ring
            : obs::TimeSeriesBound::Decimate;
        obs::armTimeSeries(ts);
    }
    if (!options.eventsOutPath.empty())
        obs::setEventLoggingEnabled(true);
    std::string crash_dir = options.crashDirPath;
    if (crash_dir.empty()) {
        if (const char *env = std::getenv("DCBATT_CRASH_DIR"))
            crash_dir = env;
    }
    if (!crash_dir.empty())
        obs::setCrashBundleDir(crash_dir);

    const power::RegionSpec &spec = options.spec;
    sim::RegionRunOptions run;
    run.threads = options.threads;
    // Execution knobs are stderr-only: stdout must be byte-identical
    // across --threads (the CI smoke diff).
    std::fprintf(stderr, "dcbatt_region: %u thread(s)\n",
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

    // Side channels: stdout stays identical with or without them.
    if (!options.metricsJsonPath.empty()) {
        obs::writeMetricsJson(options.metricsJsonPath);
        std::fprintf(stderr, "metrics snapshot: %s\n",
                     options.metricsJsonPath.c_str());
    }
    if (!options.traceOutPath.empty()) {
        obs::writeChromeTrace(options.traceOutPath);
        std::fprintf(stderr, "chrome trace: %s\n",
                     options.traceOutPath.c_str());
    }
    if (!options.timeSeriesOutPath.empty()) {
        obs::writeTimeSeries(options.timeSeriesOutPath);
        std::fprintf(stderr, "time series: %s\n",
                     options.timeSeriesOutPath.c_str());
    }
    if (!options.eventsOutPath.empty()) {
        obs::writeEventsJsonl(options.eventsOutPath);
        std::fprintf(stderr, "event log: %s\n",
                     options.eventsOutPath.c_str());
    }
    return tripped > 0 ? 2 : 0;
}

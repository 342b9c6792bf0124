/**
 * @file
 * dcbatt_sim — command-line driver for the charging-event simulator.
 *
 * Runs one charging event (the paper's Section V-B experiment) with
 * everything configurable from flags, and prints the outcome as a
 * table plus an optional CSV of the power series. This is the
 * "try your own scenario" entry point of the repo:
 *
 *   dcbatt_sim --policy priority-aware --limit-mw 2.3 --dod 0.5
 *   dcbatt_sim --policy original --racks 100 --ot-seconds 60 \
 *              --csv out.csv
 *
 * `dcbatt_sim --help` prints the table parseArgs() registers:
 *
 * usage: dcbatt_sim [flags]
 *
 * Flags (all optional):
 *   --policy NAME          original|variable|global|priority-aware (or pa)
 *                          (default priority-aware)
 *   --racks N              fleet size (default 316)
 *   --p1 N                 P1 rack count; with --p2 and --p3 it must sum
 *                          to --racks (default: the paper's 89/142/85 mix,
 *                          scaled to --racks)
 *   --p2 N                 P2 rack count
 *   --p3 N                 P3 rack count
 *   --limit-mw X[,Y,...]   MSB power limit(s); several, comma-separated,
 *                          sweep in parallel (default 2.5)
 *   --mean-mw X            fleet mean IT load (default 2.0)
 *   --dod X                target mean DOD, in (0, 1] (default 0.5)
 *   --ot-seconds X         explicit open-transition length
 *   --postpone             enable the postponement extension
 *   --restore              enable restore-on-headroom
 *   --seed N               trace seed (default 42)
 *   --threads N            worker threads for multi-limit sweeps (default:
 *                          hardware concurrency)
 *   --audit-seconds X      audit the physical invariants every X sim
 *                          seconds (a violation aborts the run)
 *   --csv PATH             write the time,msb,it,recharge,cap series
 *                          (single-limit runs only)
 *   --metrics-json PATH    deterministic metrics snapshot
 *   --trace-out PATH       Chrome trace of wall-clock spans (Perfetto)
 *   --timeseries-out PATH  flight-recorder tape: CSV, or JSON for *.json
 *   --timeseries-cadence SECS
 *                          tape cadence in sim seconds (default 30)
 *   --timeseries-mode decimate|ring
 *                          tape memory bound (default decimate)
 *   --events-out PATH      structured event log (JSONL, dcbatt-events-v1)
 *   --crash-dir DIR        post-mortem crash bundle directory (default
 *                          $DCBATT_CRASH_DIR); see tools/postmortem_inspect.py
 *   --selftest-crash       trip a DCBATT_REQUIRE after arming, to exercise
 *                          the crash-bundle path
 *   --verbose              debug-level logging on stderr (trace-cache
 *                          hit/miss accounting, etc.)
 *   --help                 this list
 */

#include <climits>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "cli.h"
#include "core/charging_event_sim.h"
#include "obs/crash_bundle.h"
#include "obs/event_log.h"
#include "sim/sweep_runner.h"
#include "trace/trace_cache.h"
#include "trace/trace_generator.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/text_table.h"
#include "util/thread_pool.h"

using namespace dcbatt;

namespace {

struct CliOptions
{
    core::ChargingEventConfig config;
    trace::TraceGenSpec traces;
    std::optional<int> p1, p2, p3;
    std::vector<double> limitsMw{2.5};
    double meanMw = 2.0;
    int threads = 0;  // 0 = hardware concurrency
    std::string csvPath;
    cli::Observability observability;
    bool selftestCrash = false;
    bool verbose = false;
};

/** The comma-separated --limit-mw list; each entry a positive number. */
std::vector<double>
parseLimitList(const char *flag, const std::string &value)
{
    std::vector<double> limits;
    size_t start = 0;
    for (size_t comma = 0; comma != std::string::npos; start = comma + 1) {
        comma = value.find(',', start);
        std::string item = value.substr(start, comma - start);
        limits.push_back(cli::parseDouble(flag, item.c_str()));
        if (limits.back() <= 0.0)
            util::fatal(util::strf("%s: bad entry '%s'", flag, item.c_str()));
    }
    return limits;
}

core::PolicyKind
parsePolicy(const std::string &name)
{
    if (name == "original")
        return core::PolicyKind::OriginalLocal;
    if (name == "variable")
        return core::PolicyKind::VariableLocal;
    if (name == "global")
        return core::PolicyKind::GlobalRate;
    if (name == "priority-aware" || name == "pa")
        return core::PolicyKind::PriorityAware;
    util::fatal(util::strf("unknown policy: %s", name.c_str()));
}

void
parseArgs(int argc, char **argv, CliOptions &options)
{
    core::ChargingEventConfig &config = options.config;
    cli::Flags flags;
    flags.add("--policy", "NAME",
              "original|variable|global|priority-aware (or pa)\n"
              "(default priority-aware)",
              [&config](const char *, const char *text) {
                  config.policy = parsePolicy(text);
              });
    flags.addInt("--racks", &options.traces.rackCount,
                 "fleet size (default 316)", 1, INT_MAX);
    flags.addInt("--p1", &options.p1,
                 "P1 rack count; with --p2 and --p3 it must sum\n"
                 "to --racks (default: the paper's 89/142/85 mix,\n"
                 "scaled to --racks)",
                 0, INT_MAX);
    flags.addInt("--p2", &options.p2, "P2 rack count", 0, INT_MAX);
    flags.addInt("--p3", &options.p3, "P3 rack count", 0, INT_MAX);
    flags.add("--limit-mw", "X[,Y,...]",
              "MSB power limit(s); several, comma-separated,\n"
              "sweep in parallel (default 2.5)",
              [&options](const char *flag, const char *text) {
                  options.limitsMw = parseLimitList(flag, text);
              });
    flags.addDouble("--mean-mw", &options.meanMw,
                    "fleet mean IT load (default 2.0)");
    flags.addDouble("--dod", &config.targetMeanDod,
                    "target mean DOD, in (0, 1] (default 0.5)");
    flags.addDouble("--ot-seconds", &config.openTransitionLength,
                    "explicit open-transition length");
    flags.addSwitch("--postpone",
                    &config.priorityAwareOptions.allowPostponement,
                    "enable the postponement extension");
    flags.addSwitch("--restore",
                    &config.priorityAwareOptions.restoreOnHeadroom,
                    "enable restore-on-headroom");
    flags.addInt("--seed", &options.traces.seed, "trace seed (default 42)");
    flags.addInt("--threads", &options.threads,
                 "worker threads for multi-limit sweeps (default:\n"
                 "hardware concurrency)",
                 0, INT_MAX);
    flags.addDouble("--audit-seconds", &config.auditInterval,
                    "audit the physical invariants every X sim\n"
                    "seconds (a violation aborts the run)");
    flags.addString("--csv", &options.csvPath, "PATH",
                    "write the time,msb,it,recharge,cap series\n"
                    "(single-limit runs only)");
    options.observability.addFlags(flags);
    flags.addSwitch("--selftest-crash", &options.selftestCrash,
                    "trip a DCBATT_REQUIRE after arming, to exercise\n"
                    "the crash-bundle path");
    flags.addSwitch("--verbose", &options.verbose,
                    "debug-level logging on stderr (trace-cache\n"
                    "hit/miss accounting, etc.)");
    flags.parse(argc, argv);
    if (config.targetMeanDod <= 0.0 || config.targetMeanDod > 1.0)
        util::fatal("--dod must be in (0, 1]");
    if (config.openTransitionLength
        && config.openTransitionLength->value() <= 0.0)
        util::fatal("--ot-seconds must be positive");
    if (config.auditInterval && config.auditInterval->value() <= 0.0)
        util::fatal("--audit-seconds must be positive");
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
    if (options.selftestCrash) {
        // Exercise the post-mortem path end to end: arm (above), put
        // a couple of events on the tape, then trip a contract check
        // exactly the way real invariant failures do.
        if (options.observability.crashDir().empty())
            util::fatal("--selftest-crash needs --crash-dir (or "
                        "$DCBATT_CRASH_DIR)");
        obs::setCrashContext("selftest", "1");
        obs::logEvent(0.0, "selftest_marker", {{"step", 1}});
        obs::logEvent(1.0, "selftest_marker", {{"step", 2}});
        DCBATT_REQUIRE(false,
                       "selftest crash requested (--selftest-crash)");
    }

    core::ChargingEventConfig &config = options.config;
    trace::TraceGenSpec &tspec = options.traces;
    const int racks = tspec.rackCount;

    // Priority mix: explicit counts, or the paper's ratio scaled.
    if (!options.p1 && !options.p2 && !options.p3) {
        options.p1 = static_cast<int>(racks * 89LL / 316);
        options.p3 = static_cast<int>(racks * 85LL / 316);
        options.p2 = racks - *options.p1 - *options.p3;
    } else if (!options.p1 || !options.p2 || !options.p3) {
        util::fatal("--p1, --p2 and --p3 must be given together");
    }
    int p1 = *options.p1, p2 = *options.p2, p3 = *options.p3;
    long long sum = static_cast<long long>(p1) + p2 + p3;
    if (sum != racks) {
        util::fatal(util::strf("--p1+--p2+--p3 = %lld but --racks = %d",
                               sum, racks));
    }
    auto priorities = power::makePriorityMix(p1, p2, p3);

    tspec.startTime = util::hours(10.0);
    tspec.duration = util::hours(8.0);
    tspec.aggregateMean = util::megawatts(options.meanMw);
    tspec.aggregateAmplitude = util::megawatts(0.05 * options.meanMw);
    tspec.priorities = priorities;
    config.priorities = priorities;

    // Several --limit-mw values: fan the sweep out across a worker
    // pool and print one summary row per limit. The single-limit path
    // below is untouched (and is byte-identical at any --threads).
    if (options.limitsMw.size() > 1) {
        if (!options.csvPath.empty())
            util::fatal("--csv needs a single --limit-mw value");
        util::ThreadPool pool(
            options.threads > 0
                ? static_cast<unsigned>(options.threads)
                : util::ThreadPool::hardwareThreads());
        sim::SweepRunner runner(pool);
        std::vector<sim::SweepTask> tasks;
        for (double limit : options.limitsMw) {
            sim::SweepTask task;
            task.label = util::strf("%.2fMW", limit);
            task.config = config;
            task.config.msbLimit = util::megawatts(limit);
            // Every limit shares the one cached trace set: the first
            // fetch generates, the rest are cache hits (visible with
            // --verbose).
            task.sharedTraces = trace::sharedTraces(tspec);
            tasks.push_back(std::move(task));
        }
        auto stats = trace::traceCacheStats();
        util::debug(util::strf(
            "trace cache after sweep setup: %llu hits, %llu misses "
            "for %zu limits",
            static_cast<unsigned long long>(stats.hits),
            static_cast<unsigned long long>(stats.misses),
            options.limitsMw.size()));
        auto results = runner.run(tasks);

        std::printf("dcbatt_sim: %s, %d racks (%d P1 / %d P2 / %d "
                    "P3), %zu limits\n\n",
                    core::toString(config.policy), racks, p1,
                    p2, p3, options.limitsMw.size());
        util::TextTable table({"limit (MW)", "peak MSB (MW)",
                               "overload (s)", "tripped", "P1 met",
                               "P2 met", "P3 met",
                               "max cap (kW)"});
        bool tripped = false;
        for (size_t i = 0; i < results.size(); ++i) {
            const auto &result = results[i];
            tripped = tripped || result.breakerTripped;
            table.addRow(
                {util::strf("%.2f", options.limitsMw[i]),
                 util::strf("%.3f",
                            util::toMegawatts(result.peakPower)),
                 util::strf("%d", result.overloadSteps),
                 result.breakerTripped ? "YES" : "no",
                 util::strf("%d / %d", result.slaMetByPriority[0],
                            result.racksByPriority[0]),
                 util::strf("%d / %d", result.slaMetByPriority[1],
                            result.racksByPriority[1]),
                 util::strf("%d / %d", result.slaMetByPriority[2],
                            result.racksByPriority[2]),
                 util::strf("%.1f",
                            util::toKilowatts(result.maxCap))});
        }
        std::printf("%s", table.render().c_str());
        options.observability.finish();
        return tripped ? 2 : 0;
    }

    config.msbLimit = util::megawatts(options.limitsMw[0]);
    auto traces = trace::sharedTraces(tspec);
    auto result = core::runChargingEvent(config, *traces);

    std::printf("dcbatt_sim: %s, %d racks (%d P1 / %d P2 / %d P3), "
                "limit %.2f MW\n",
                core::toString(config.policy), racks, p1, p2,
                p3, options.limitsMw[0]);
    std::printf("open transition %.0f s at the trace peak, fleet mean "
                "DOD %.2f\n\n",
                result.otLength.value(), result.meanInitialDod);

    util::TextTable table({"metric", "value"});
    table.addRow({"peak MSB power",
                  util::strf("%.3f MW",
                             util::toMegawatts(result.peakPower))});
    table.addRow({"seconds above the limit",
                  util::strf("%d", result.overloadSteps)});
    table.addRow({"breaker tripped",
                  result.breakerTripped ? "YES" : "no"});
    table.addRow({"max server capping",
                  util::strf("%.1f kW (%.1f%% of IT)",
                             util::toKilowatts(result.maxCap),
                             result.maxCapFractionOfIt * 100.0)});
    for (power::Priority p : power::kAllPriorities) {
        int idx = power::priorityIndex(p);
        table.addRow({util::strf("%s SLAs met", toString(p)),
                      util::strf("%d / %d",
                                 result.slaMetByPriority[idx],
                                 result.racksByPriority[idx])});
    }
    int held = 0, outages = 0;
    for (const auto &rack : result.racks) {
        held += rack.everHeld ? 1 : 0;
        outages += rack.sawOutage ? 1 : 0;
    }
    table.addRow({"racks postponed", util::strf("%d", held)});
    table.addRow({"racks with battery-exhaustion outage",
                  util::strf("%d", outages)});
    if (config.auditInterval) {
        table.addRow({"invariant audits (violations)",
                      util::strf("%llu (%llu)",
                                 static_cast<unsigned long long>(
                                     result.auditCount),
                                 static_cast<unsigned long long>(
                                     result.auditViolations))});
    }
    std::printf("%s", table.render().c_str());

    if (!options.csvPath.empty()) {
        std::vector<std::vector<std::string>> rows;
        rows.push_back({"time_s", "msb_w", "it_w", "recharge_w",
                        "cap_w"});
        for (size_t i = 0; i < result.msbPower.size(); ++i) {
            rows.push_back({
                util::strf("%.1f", result.msbPower.timeAt(i).value()),
                util::strf("%.1f", result.msbPower[i]),
                util::strf("%.1f", result.itPower[i]),
                util::strf("%.1f", result.rechargePower[i]),
                util::strf("%.1f", result.capPower[i]),
            });
        }
        util::writeCsvFile(options.csvPath, rows);
        std::printf("\npower series written to %s\n",
                    options.csvPath.c_str());
    }
    options.observability.finish();
    return result.breakerTripped ? 2 : 0;
}

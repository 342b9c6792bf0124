#include "bench_common.h"

#include <climits>
#include <cstdio>
#include <memory>
#include <type_traits>

#include "trace/trace_cache.h"
#include "util/logging.h"

namespace dcbatt::bench {

// The singleton-sharing contract of paperMsbTraces(): the reference
// is const, so SweepRunner tasks can only reach TraceSet's const read
// paths. (Thread-safe construction is the language's: function-local
// statics initialize under a lock since C++11.)
static_assert(
    std::is_const_v<
        std::remove_reference_t<decltype(paperMsbTraces())>>,
    "paperMsbTraces must return a const reference; SweepRunner tasks "
    "share the instance");
static_assert(
    std::is_const_v<
        std::remove_reference_t<decltype(paperPriorities())>>,
    "paperPriorities must return a const reference; SweepRunner tasks "
    "share the instance");

const std::vector<power::Priority> &
paperPriorities()
{
    static const std::vector<power::Priority> priorities =
        trace::paperMsbPriorities();
    return priorities;
}

const trace::TraceSet &
paperMsbTraces()
{
    // Resolved through the process-wide trace cache so benches that
    // also build the spec themselves (or run several figures in one
    // process) replay the one generated instance.
    static const std::shared_ptr<const trace::TraceSet> traces = [] {
        trace::TraceGenSpec spec;
        spec.rackCount = 316;
        spec.startTime = util::hours(10.0);
        spec.duration = util::hours(8.0);
        spec.step = util::Seconds(3.0);
        spec.priorities = paperPriorities();
        return trace::sharedTraces(spec);
    }();
    return *traces;
}

core::ChargingEventConfig
paperEventConfig(core::PolicyKind policy, util::Watts limit,
                 double mean_dod)
{
    core::ChargingEventConfig config;
    config.policy = policy;
    config.msbLimit = limit;
    config.targetMeanDod = mean_dod;
    config.priorities = paperPriorities();
    return config;
}

std::string
fmtMw(util::Watts watts)
{
    return util::strf("%.3f MW", util::toMegawatts(watts));
}

std::string
fmtKw(util::Watts watts)
{
    return util::strf("%.1f kW", util::toKilowatts(watts));
}

std::string
fmtMin(util::Seconds seconds)
{
    return util::strf("%.1f min", util::toMinutes(seconds));
}

cli::Observability
parseBenchArgs(int argc, char **argv, unsigned *threads,
               const std::function<void(cli::Flags &)> &add_flags)
{
    cli::Flags flags;
    if (threads != nullptr) {
        flags.addInt("--threads", threads,
                     "lanes: threads doing the work (default: hardware\n"
                     "concurrency); output is identical at any value",
                     0, INT_MAX);
    }
    if (add_flags)
        add_flags(flags);
    cli::Observability observability;
    observability.addFlags(flags);
    flags.parse(argc, argv);
    observability.arm();
    if (threads != nullptr) {
        if (*threads == 0)
            *threads = util::ThreadPool::hardwareThreads();
        std::fprintf(stderr, "[bench] lanes: %u\n", *threads);
    }
    return observability;
}

void
banner(const std::string &artifact, const std::string &summary)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s — %s\n", artifact.c_str(), summary.c_str());
    std::printf("==============================================="
                "=====================\n");
}

} // namespace dcbatt::bench

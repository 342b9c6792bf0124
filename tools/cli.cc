#include "cli.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/chrome_trace_writer.h"
#include "obs/crash_bundle.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "util/check.h"
#include "util/logging.h"

namespace dcbatt::cli {

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

void
Flags::add(const char *name, const char *metavar, std::string help,
           Setter set)
{
    for (const Flag &flag : flags_)
        DCBATT_REQUIRE(flag.name != name, "flag registered twice");
    flags_.push_back({name, metavar, std::move(help), std::move(set)});
}

void
Flags::addSwitch(const char *name, bool *target, std::string help)
{
    add(name, "", std::move(help),
        [target](const char *, const char *) { *target = true; });
}

void
Flags::addString(const char *name, std::string *target,
                 const char *metavar, std::string help)
{
    add(name, metavar, std::move(help),
        [target](const char *, const char *text) { *target = text; });
}

void
Flags::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        std::string name = argv[i];
        if (name == "--help" || name == "-h") {
            const char *slash = std::strrchr(argv[0], '/');
            std::fputs(help(slash ? slash + 1 : argv[0]).c_str(), stdout);
            std::exit(0);
        }
        auto flag = std::find_if(flags_.begin(), flags_.end(),
                                 [&](const Flag &f) { return f.name == name; });
        if (flag == flags_.end())
            util::fatal(util::strf("unknown flag: %s (try --help)", argv[i]));
        const char *value = nullptr;
        if (!flag->metavar.empty()) {
            if (i + 1 == argc)
                util::fatal(util::strf("flag %s needs a value", argv[i]));
            value = argv[++i];
        }
        flag->set(flag->name.c_str(), value);
    }
}

std::string
Flags::help(const char *program) const
{
    // Help text starts in this column; a longer flag gets a line of
    // its own.
    const std::string indent(25, ' ');
    std::string out = util::strf(
        "usage: %s [flags]\n\nFlags (all optional):\n", program);
    auto add_line = [&](std::string flag, const std::string &help) {
        flag = "  " + flag;
        out += flag.size() + 2 > indent.size()
            ? flag + "\n" + indent
            : flag + indent.substr(flag.size());
        for (char c : help)
            out += c == '\n' ? "\n" + indent : std::string(1, c);
        out += "\n";
    };
    for (const Flag &flag : flags_) {
        add_line(flag.metavar.empty() ? flag.name
                                      : flag.name + " " + flag.metavar,
                 flag.help);
    }
    add_line("--help", "this list");
    return out;
}

void
Observability::addFlags(Flags &flags, double cadence_seconds)
{
    timeSeries_.cadenceSeconds = cadence_seconds;
    flags.addString("--metrics-json", &metricsJsonPath_, "PATH",
                    "deterministic metrics snapshot");
    flags.addString("--trace-out", &traceOutPath_, "PATH",
                    "Chrome trace of wall-clock spans (Perfetto)");
    flags.addString("--timeseries-out", &timeSeriesOutPath_, "PATH",
                    "flight-recorder tape: CSV, or JSON for *.json");
    flags.add("--timeseries-cadence", "SECS",
              util::strf("tape cadence in sim seconds (default %g)",
                         timeSeries_.cadenceSeconds),
              [this](const char *flag, const char *text) {
                  timeSeries_.cadenceSeconds = parseDouble(flag, text);
                  if (timeSeries_.cadenceSeconds <= 0.0)
                      util::fatal("--timeseries-cadence must be positive");
              });
    flags.add("--timeseries-mode", "decimate|ring",
              "tape memory bound (default decimate)",
              [this](const char *, const char *text) {
                  if (std::strcmp(text, "decimate") == 0)
                      timeSeries_.bound = obs::TimeSeriesBound::Decimate;
                  else if (std::strcmp(text, "ring") == 0)
                      timeSeries_.bound = obs::TimeSeriesBound::Ring;
                  else
                      util::fatal(
                          "--timeseries-mode must be decimate or ring");
              });
    flags.addString("--events-out", &eventsOutPath_, "PATH",
                    "structured event log (JSONL, dcbatt-events-v1)");
    flags.addString("--crash-dir", &crashDir_, "DIR",
                    "post-mortem crash bundle directory (default\n"
                    "$DCBATT_CRASH_DIR); see tools/postmortem_inspect.py");
}

void
Observability::arm()
{
    if (!traceOutPath_.empty())
        obs::setTracingEnabled(true);
    if (!timeSeriesOutPath_.empty())
        obs::armTimeSeries(timeSeries_);
    if (!eventsOutPath_.empty())
        obs::setEventLoggingEnabled(true);
    // The flag wins; the environment variable lets CI arm post-mortem
    // bundles fleet-wide without touching every invocation.
    if (crashDir_.empty()) {
        if (const char *env = std::getenv("DCBATT_CRASH_DIR"))
            crashDir_ = env;
    }
    if (!crashDir_.empty())
        obs::setCrashBundleDir(crashDir_);
}

void
Observability::finish() const
{
    const struct
    {
        const char *what;
        const std::string &path;
        void (*write)(const std::string &);
    } files[] = {{"metrics snapshot", metricsJsonPath_, obs::writeMetricsJson},
                 {"chrome trace", traceOutPath_, obs::writeChromeTrace},
                 {"time series", timeSeriesOutPath_, obs::writeTimeSeries},
                 {"event log", eventsOutPath_, obs::writeEventsJsonl}};
    for (const auto &file : files) {
        if (file.path.empty())
            continue;
        file.write(file.path);
        std::fprintf(stderr, "%s: %s\n", file.what, file.path.c_str());
    }
}

} // namespace dcbatt::cli

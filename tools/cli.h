/**
 * @file
 * The command-line front end shared by dcbatt_sim, dcbatt_region and
 * the benches.
 *
 * A driver registers each flag it reads in a Flags table: a name, a
 * typed target and a help line. The one table drives both parsing and
 * `--help`. Decoding is strict: trailing garbage, an empty value, an
 * out-of-range integer, a non-finite number, an unknown flag and a
 * missing value are fatal and name the flag.
 */

#ifndef DCBATT_TOOLS_CLI_H_
#define DCBATT_TOOLS_CLI_H_

#include <algorithm>
#include <climits>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/time_series_recorder.h"

namespace dcbatt::cli {

/** @p text as a whole base-10 integer in [lo, hi]; fatal otherwise. */
long long parseInteger(const char *flag, const char *text, long long lo,
                       long long hi);

/** @p text as a whole finite number; fatal otherwise. */
double parseDouble(const char *flag, const char *text);

/** The value type behind a flag target: T for T* and optional<T>*. */
template <typename T> T flagValue(T *);
template <typename T> T flagValue(std::optional<T> *);

/** A flag table: what parse() accepts and help() lists. */
class Flags
{
  public:
    /** Decodes one value; @p flag names the flag in messages. */
    using Setter = std::function<void(const char *flag, const char *text)>;

    /** A flag taking a value; @p help may span lines ('\n'). */
    void add(const char *name, const char *metavar, std::string help,
             Setter set);

    /** A flag without a value: it sets @p target to true. */
    void addSwitch(const char *name, bool *target, std::string help);

    void addString(const char *name, std::string *target,
                   const char *metavar, std::string help);

    /**
     * An integer (or optional integer) flag whose value must lie in
     * [lo, hi]; the bounds default to the target type's range.
     */
    template <typename T,
              typename V = decltype(flagValue(static_cast<T *>(nullptr)))>
    void
    addInt(const char *name, T *target, std::string help,
           long long lo = static_cast<long long>(
               std::numeric_limits<V>::min()),
           long long hi = static_cast<long long>(std::min<unsigned long long>(
               std::numeric_limits<V>::max(), LLONG_MAX)))
    {
        add(name, "N", std::move(help),
            [target, lo, hi](const char *flag, const char *text) {
                *target = static_cast<V>(parseInteger(flag, text, lo, hi));
            });
    }

    /**
     * A number flag into a double or a util::Quantity (or an optional
     * of one), scaled by @p unit: `--budget-mw` fills util::Watts
     * with unit 1e6.
     */
    template <typename T,
              typename V = decltype(flagValue(static_cast<T *>(nullptr)))>
    void
    addDouble(const char *name, T *target, std::string help,
              double unit = 1.0)
    {
        add(name, "X", std::move(help),
            [target, unit](const char *flag, const char *text) {
                *target = V(parseDouble(flag, text) * unit);
            });
    }

    /** Decode argv into the targets; `--help`/`-h` prints help(), exits 0. */
    void parse(int argc, char **argv) const;

    /** One line per flag, in registration order. */
    std::string help(const char *program) const;

  private:
    struct Flag
    {
        std::string name;
        std::string metavar;  // empty for a switch
        std::string help;
        Setter set;
    };

    std::vector<Flag> flags_;
};

/**
 * The side-file flags every driver shares: --metrics-json,
 * --trace-out, --timeseries-out/-cadence/-mode, --events-out and
 * --crash-dir (else $DCBATT_CRASH_DIR). Every export is a side
 * channel, so stdout is byte-identical with or without them.
 */
class Observability
{
  public:
    /**
     * Register the flags, defaulting --timeseries-cadence to
     * @p cadence_seconds; this object must outlive flags.parse().
     */
    void addFlags(Flags &flags, double cadence_seconds = 30.0);

    /** Arm the recorders that were asked for; call before the run. */
    void arm();

    /** Write the side files; call after worker threads quiesce. */
    void finish() const;

    /** The armed crash-bundle directory; empty when off. */
    const std::string &crashDir() const { return crashDir_; }

  private:
    std::string metricsJsonPath_;
    std::string traceOutPath_;
    std::string timeSeriesOutPath_;
    obs::TimeSeriesOptions timeSeries_;
    std::string eventsOutPath_;
    std::string crashDir_;
};

} // namespace dcbatt::cli

#endif // DCBATT_TOOLS_CLI_H_

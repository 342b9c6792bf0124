#include "obs/time_series_recorder.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>

#include "obs/event_log.h"
#include "obs/text_output.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/logging.h"

namespace dcbatt::obs {

TimeSeriesRecorder::TimeSeriesRecorder(TimeSeriesOptions options)
    : options_(options), cadence_(options.cadenceSeconds),
      nextSample_(0.0)
{
    DCBATT_REQUIRE(options.cadenceSeconds > 0.0,
                   "time-series cadence %g s must be positive",
                   options.cadenceSeconds);
    DCBATT_REQUIRE(options.maxSamples >= 2,
                   "time-series capacity %zu must be >= 2",
                   options.maxSamples);
}

void
TimeSeriesRecorder::addProbe(std::string name,
                             std::function<double()> probe)
{
    DCBATT_REQUIRE(!started_,
                   "probe '%s' added after sampling started",
                   name.c_str());
    DCBATT_REQUIRE(static_cast<bool>(probe),
                   "probe '%s' has no body", name.c_str());
    names_.push_back(std::move(name));
    probes_.push_back(std::move(probe));
    columns_.emplace_back();
}

void
TimeSeriesRecorder::sampleAt(double t_seconds)
{
    if (started_ && t_seconds < nextSample_)
        return;
    if (!started_) {
        started_ = true;
        size_t hint = std::min(options_.maxSamples,
                               static_cast<size_t>(1024));
        times_.reserve(hint);
        for (auto &column : columns_)
            column.reserve(hint);
    }

    if (times_.size() >= options_.maxSamples) {
        switch (options_.bound) {
          case TimeSeriesBound::Decimate: {
            // Keep samples 0, 2, 4, ... and double the cadence: the
            // tape still spans the whole run at half resolution.
            size_t kept = 0;
            for (size_t i = 0; i < times_.size(); i += 2, ++kept) {
                times_[kept] = times_[i];
                for (auto &column : columns_)
                    column[kept] = column[i];
            }
            times_.resize(kept);
            for (auto &column : columns_)
                column.resize(kept);
            cadence_ *= 2.0;
            break;
          }
          case TimeSeriesBound::Ring:
            times_.erase(times_.begin());
            for (auto &column : columns_)
                column.erase(column.begin());
            break;
        }
    }

    times_.push_back(t_seconds);
    for (size_t i = 0; i < probes_.size(); ++i)
        columns_[i].push_back(probes_[i]());
    nextSample_ = t_seconds + cadence_;
}

// ---------------------------------------------------------------------
// Process-wide arming and publication
// ---------------------------------------------------------------------

namespace {

/** One published tape (a recorder's columnar store, detached). */
struct PublishedSeries
{
    double cadence = 0.0;
    std::vector<std::string> names;
    std::vector<double> times;
    std::vector<std::vector<double>> columns;
};

struct TimeSeriesState
{
    util::Mutex mutex;
    TimeSeriesOptions armedOptions DCBATT_GUARDED_BY(mutex);
    /** Ordered by scope: exports iterate deterministically. */
    std::map<std::string, PublishedSeries> published
        DCBATT_GUARDED_BY(mutex);
    /** Publish count per base scope, for the #n suffixing. */
    std::map<std::string, unsigned> publishCounts
        DCBATT_GUARDED_BY(mutex);
};

std::atomic<bool> g_armed{false};

TimeSeriesState &
state()
{
    static TimeSeriesState *s = new TimeSeriesState();
    return *s;
}

} // namespace

void
armTimeSeries(TimeSeriesOptions options)
{
    TimeSeriesState &s = state();
    util::MutexLock lock(s.mutex);
    s.armedOptions = options;
    g_armed.store(true, std::memory_order_relaxed);
}

void
disarmTimeSeries()
{
    g_armed.store(false, std::memory_order_relaxed);
}

bool
timeSeriesArmed()
{
    return g_armed.load(std::memory_order_relaxed);
}

TimeSeriesOptions
armedTimeSeriesOptions()
{
    TimeSeriesState &s = state();
    util::MutexLock lock(s.mutex);
    return s.armedOptions;
}

void
publishTimeSeries(TimeSeriesRecorder recorder)
{
    PublishedSeries series;
    series.cadence = recorder.cadenceSeconds();
    series.names = recorder.probeNames();
    series.times.reserve(recorder.sampleCount());
    for (size_t i = 0; i < recorder.sampleCount(); ++i)
        series.times.push_back(recorder.timeAt(i));
    series.columns.resize(series.names.size());
    for (size_t p = 0; p < series.names.size(); ++p) {
        series.columns[p].reserve(recorder.sampleCount());
        for (size_t i = 0; i < recorder.sampleCount(); ++i)
            series.columns[p].push_back(recorder.valueAt(p, i));
    }

    std::string scope = currentRunScope();
    TimeSeriesState &s = state();
    util::MutexLock lock(s.mutex);
    unsigned n = ++s.publishCounts[scope];
    std::string key =
        n == 1 ? scope : scope + util::strf("#%u", n);
    s.published[key] = std::move(series);
}

size_t
publishedTimeSeriesCount()
{
    TimeSeriesState &s = state();
    util::MutexLock lock(s.mutex);
    return s.published.size();
}

std::string
timeSeriesToCsv()
{
    TimeSeriesState &s = state();
    util::MutexLock lock(s.mutex);

    // Union of probe names across tapes, sorted: one stable header
    // even when different engines record different probe sets.
    std::set<std::string> name_set;
    for (const auto &[scope, series] : s.published)
        name_set.insert(series.names.begin(), series.names.end());
    std::vector<std::string> header(name_set.begin(), name_set.end());

    std::string out = "scope,t_s";
    for (const std::string &name : header)
        out += "," + name;
    out += "\n";

    for (const auto &[scope, series] : s.published) {
        // Column index per header name for this tape (-1 = absent).
        std::vector<ptrdiff_t> remap(header.size(), -1);
        for (size_t h = 0; h < header.size(); ++h) {
            auto it = std::find(series.names.begin(),
                                series.names.end(), header[h]);
            if (it != series.names.end())
                remap[h] = it - series.names.begin();
        }
        for (size_t i = 0; i < series.times.size(); ++i) {
            out += scope;
            out += util::strf(",%.17g", series.times[i]);
            for (size_t h = 0; h < header.size(); ++h) {
                out += ",";
                if (remap[h] >= 0) {
                    out += util::strf(
                        "%.17g",
                        series.columns[static_cast<size_t>(
                            remap[h])][i]);
                }
            }
            out += "\n";
        }
    }
    return out;
}

std::string
timeSeriesToJson()
{
    TimeSeriesState &s = state();
    util::MutexLock lock(s.mutex);

    std::string out = util::strf(
        "{\n  \"schema\": \"%s\",\n  \"runs\": [", kTimeSeriesSchema);
    bool first_run = true;
    for (const auto &[scope, series] : s.published) {
        out += first_run ? "\n    {" : ",\n    {";
        first_run = false;
        out += "\"scope\": \"" + scope + "\"";
        out += util::strf(", \"cadence_s\": %.17g", series.cadence);
        out += ", \"columns\": [\"t_s\"";
        for (const std::string &name : series.names)
            out += ", \"" + name + "\"";
        out += "], \"t_s\": [";
        for (size_t i = 0; i < series.times.size(); ++i) {
            out += util::strf("%s%.17g", i ? ", " : "",
                              series.times[i]);
        }
        out += "], \"values\": [";
        for (size_t p = 0; p < series.columns.size(); ++p) {
            out += p ? ", [" : "[";
            for (size_t i = 0; i < series.columns[p].size(); ++i) {
                out += util::strf("%s%.17g", i ? ", " : "",
                                  series.columns[p][i]);
            }
            out += "]";
        }
        out += "]}";
    }
    out += "\n  ]\n}\n";
    return out;
}

void
writeTimeSeries(const std::string &path)
{
    bool json = path.size() >= 5
        && path.compare(path.size() - 5, 5, ".json") == 0;
    writeTextFile(path, json ? timeSeriesToJson() : timeSeriesToCsv());
}

void
clearTimeSeries()
{
    TimeSeriesState &s = state();
    util::MutexLock lock(s.mutex);
    s.published.clear();
    s.publishCounts.clear();
}

} // namespace dcbatt::obs

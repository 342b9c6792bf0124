#include "trace/trace_set.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/csv.h"
#include "util/logging.h"

namespace dcbatt::trace {

using util::Seconds;
using util::TimeSeries;

TraceSet::TraceSet(Seconds start, Seconds step, int rack_count)
    : start_(start), step_(step)
{
    if (rack_count <= 0)
        util::panic("TraceSet: rack count must be positive");
    racks_.assign(static_cast<size_t>(rack_count),
                  TimeSeries(start, step));
}

const TimeSeries &
TraceSet::aggregate() const
{
    if (aggValid_)
        return aggCache_;
    if (racks_.empty())
        util::panic("TraceSet::aggregate: no racks");
    TimeSeries total = racks_.front();
    for (size_t i = 1; i < racks_.size(); ++i)
        total += racks_[i];
    aggCache_ = std::move(total);
    aggValid_ = true;
    return aggCache_;
}

size_t
TraceSet::firstPeakIndex() const
{
    if (peakCached_)
        return peakCache_;
    const TimeSeries &agg = aggregate();
    // Smooth over ~15 minutes to ignore sample noise, then find the
    // first index whose smoothed value is not exceeded for a sustained
    // window afterwards (a genuine diurnal crest, not a blip).
    size_t window = std::max<size_t>(
        1, static_cast<size_t>(900.0 / step_.value()));
    TimeSeries smooth = agg.downsample(window);
    size_t guard = std::max<size_t>(
        1, static_cast<size_t>(4 * 3600.0 / smooth.step().value()));
    for (size_t i = 1; i + 1 < smooth.size(); ++i) {
        if (smooth[i] < smooth[i - 1])
            continue;
        bool is_peak = true;
        size_t hi = std::min(smooth.size(), i + 1 + guard);
        for (size_t j = i + 1; j < hi; ++j) {
            if (smooth[j] > smooth[i]) {
                is_peak = false;
                break;
            }
        }
        if (is_peak) {
            peakCache_ = std::min(agg.size() - 1,
                                  i * window + window / 2);
            peakCached_ = true;
            return peakCache_;
        }
    }
    peakCache_ = agg.argMax();
    peakCached_ = true;
    return peakCache_;
}

void
TraceSet::appendSample(std::span<const double> rack_watts)
{
    if (rack_watts.size() != racks_.size())
        util::panic("TraceSet::appendSample: wrong rack count");
    aggValid_ = false;
    peakCached_ = false;
    for (size_t i = 0; i < racks_.size(); ++i)
        racks_[i].append(rack_watts[i]);
}

void
TraceSet::save(const std::string &path) const
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> header;
    header.push_back("time_s");
    for (size_t i = 0; i < racks_.size(); ++i)
        header.push_back(util::strf("rack%zu_w", i));
    rows.push_back(std::move(header));
    for (size_t s = 0; s < sampleCount(); ++s) {
        std::vector<std::string> row;
        row.push_back(util::strf(
            "%.3f", racks_.front().timeAt(s).value()));
        for (const auto &series : racks_)
            row.push_back(util::strf("%.3f", series[s]));
        rows.push_back(std::move(row));
    }
    util::writeCsvFile(path, rows);
}

TraceSet
TraceSet::load(const std::string &path)
{
    const auto rows = util::readCsvFile(path);
    if (rows.size() < 3)
        util::fatal(util::strf("trace file too short: %s", path.c_str()));
    size_t cols = rows[0].size();
    if (cols < 2)
        util::fatal(util::strf("trace file has no racks: %s",
                               path.c_str()));
    // Field c of row r as a whole finite number, or fatal().
    auto field = [&](size_t r, size_t c) {
        const std::string &text = rows[r][c];
        char *end = nullptr;
        const double value = std::strtod(text.c_str(), &end);
        if (text.empty() || end != text.c_str() + text.size()
            || !std::isfinite(value)) {
            util::fatal(util::strf("trace file %s: row %zu, column %zu "
                                   "(%s): '%s' is not a finite number",
                                   path.c_str(), r, c + 1,
                                   rows[0][c].c_str(), text.c_str()));
        }
        return value;
    };
    const double t0 = field(1, 0);
    TraceSet set(Seconds(t0), Seconds(field(2, 0) - t0),
                 static_cast<int>(cols - 1));
    std::vector<double> sample(cols - 1);
    for (size_t r = 1; r < rows.size(); ++r) {
        if (rows[r].size() != cols) {
            util::fatal(util::strf("trace file %s: row %zu has %zu "
                                   "fields, expected %zu",
                                   path.c_str(), r, rows[r].size(), cols));
        }
        const double t = field(r, 0);
        if (r > 1 && !(t > field(r - 1, 0))) {
            util::fatal(util::strf("trace file %s: row %zu, column 1 "
                                   "(%s): time %g s does not follow %g s",
                                   path.c_str(), r, rows[0][0].c_str(), t,
                                   field(r - 1, 0)));
        }
        for (size_t c = 1; c < cols; ++c)
            sample[c - 1] = field(r, c);
        set.appendSample(sample);
    }
    return set;
}

} // namespace dcbatt::trace

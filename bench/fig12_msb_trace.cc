/**
 * @file
 * Reproduces Fig. 12: one week of aggregate power of the evaluation
 * MSB (316 racks), showing diurnal cycles between ~1.9 MW and
 * ~2.1 MW at the paper's granularity.
 */

#include <cstdio>

#include "bench_common.h"
#include "obs/event_log.h"
#include "obs/time_series_recorder.h"
#include "trace/trace_generator.h"
#include "util/ascii_chart.h"

using namespace dcbatt;

int
main(int argc, char **argv)
{
    auto observability = bench::parseBenchArgs(argc, argv);
    bench::banner("Fig. 12",
                  "aggregate MSB power over one week (synthetic "
                  "production trace, 316 racks)");

    trace::TraceGenSpec spec;
    spec.rackCount = 316;
    spec.duration = util::hours(24.0 * 7.0);
    spec.step = util::Seconds(60.0);
    spec.priorities = trace::paperMsbPriorities();
    trace::TraceSet traces = trace::generateTraces(spec);
    util::TimeSeries aggregate = traces.aggregate();

    // Flight recorder: replay the weekly aggregate onto a sampled
    // tape and note the trace milestones as events. Side channels
    // only — the chart below is printed from the full series either
    // way.
    obs::RunScope run_scope("fig12:msb_week");
    if (obs::eventLoggingEnabled()) {
        obs::logEvent(
            0.0, "trace_generated",
            {{"racks", static_cast<double>(spec.rackCount)},
             {"samples", static_cast<double>(traces.sampleCount())},
             {"step_s", spec.step.value()}});
        size_t peak_idx = traces.firstPeakIndex();
        obs::logEvent(aggregate.timeAt(peak_idx).value(), "trace_peak",
                      {{"msb_mw", aggregate[peak_idx] / 1e6}});
    }
    if (obs::timeSeriesArmed()) {
        obs::TimeSeriesRecorder recorder(
            obs::armedTimeSeriesOptions());
        size_t cursor = 0;
        recorder.addProbe("msb_aggregate_mw", [&aggregate, &cursor] {
            return aggregate[cursor] / 1e6;
        });
        for (cursor = 0; cursor < aggregate.size(); ++cursor)
            recorder.sampleAt(aggregate.timeAt(cursor).value());
        obs::publishTimeSeries(std::move(recorder));
    }

    util::ChartOptions options;
    options.title = "MSB aggregate power, one week";
    options.xLabel = "time (days)";
    options.yLabel = "power (MW)";
    options.yMin = 1.8;
    options.yMax = 2.2;
    std::printf("%s\n",
                util::renderChart(
                    {util::seriesFromTimeSeries(
                        aggregate.downsample(15), "MSB power", '*',
                        1.0 / 86400.0, 1e-6)},
                    options)
                    .c_str());

    size_t peak = traces.firstPeakIndex();
    std::printf("min:         %s   (paper band: 1.9 MW)\n",
                bench::fmtMw(util::Watts(aggregate.minValue()))
                    .c_str());
    std::printf("max:         %s   (paper band: 2.1 MW)\n",
                bench::fmtMw(util::Watts(aggregate.maxValue()))
                    .c_str());
    std::printf("mean:        %s\n",
                bench::fmtMw(util::Watts(aggregate.mean())).c_str());
    std::printf("first peak:  day %.2f at %s — the charging "
                "experiments inject their open\ntransition here, when "
                "available power is most constrained.\n",
                aggregate.timeAt(peak).value() / 86400.0,
                bench::fmtMw(util::Watts(aggregate[peak])).c_str());
    std::printf("fleet:       316 racks = 89 P1 + 142 P2 + 85 P3\n");
    observability.finish();
    return 0;
}

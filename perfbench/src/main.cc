// dcbatt_perfbench: run one benchmark workload and print one JSON line.
//
//   dcbatt_perfbench --workload paper_sweep|region_day|region_surge
//                    --seed N --seconds S --trace 0|1 [--shrink]
//
// perfbench/run.py builds this program, runs it, and turns its line
// into the benchmark's result; the line carries the run manifest, the
// operation counts, the metrics with their units, and any failed check.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void
usage(const char *problem)
{
    std::fprintf(stderr,
                 "dcbatt_perfbench: %s\nusage: dcbatt_perfbench "
                 "--workload paper_sweep|region_day|region_surge "
                 "--seed N --seconds S --trace 0|1 [--shrink]\n",
                 problem);
    std::exit(2);
}

perfbench::RunOptions
parse(int argc, char **argv)
{
    perfbench::RunOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--shrink") {
            opt.shrink = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            opt.traced = std::strtol(value, &end, 10) != 0;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == value))
            usage(("bad value for " + flag).c_str());
    }
    if (!perfbench::knownWorkload(opt.workload))
        usage("unknown or missing --workload");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opt = parse(argc, argv);
    perfbench::RunReport report = perfbench::runWorkload(opt);

    std::string line = "{\"manifest\": {";
    for (size_t i = 0; i < report.manifest.size(); ++i) {
        line += (i ? ", \"" : "\"") + report.manifest[i].first + "\": "
            + report.manifest[i].second;
    }
    line += "}, \"correct\": ";
    line += report.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"metrics\": {";
    char number[64];
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const perfbench::Metric &m = report.metrics[i];
        std::snprintf(number, sizeof number, "%.17g", m.value);
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number
            + ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}, \"problems\": [";
    for (size_t i = 0; i < report.problems.size(); ++i)
        line += (i ? ", " : "") + perfbench::jsonString(report.problems[i]);
    line += "]}";
    std::printf("%s\n", line.c_str());
    return 0;
}

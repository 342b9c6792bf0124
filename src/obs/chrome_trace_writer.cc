#include "obs/chrome_trace_writer.h"

#include "obs/text_output.h"
#include "util/logging.h"

namespace dcbatt::obs {

std::string
ChromeTraceWriter::toJson(const std::vector<SpanEvent> &events)
{
    std::string out;
    out.reserve(events.size() * 96 + 64);
    out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const SpanEvent &event : events) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"name\": ";
        appendJsonString(out, event.name);
        // Timestamps are microseconds in the trace format.
        out += util::strf(
            ", \"cat\": \"dcbatt\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f",
            event.tid, static_cast<double>(event.startNs) / 1e3,
            static_cast<double>(event.durNs) / 1e3);
        if (!event.args.empty()) {
            out += ", \"args\": {";
            for (size_t i = 0; i < event.args.size(); ++i) {
                if (i)
                    out += ", ";
                appendJsonString(out, event.args[i].key);
                out += util::strf(": %.17g", event.args[i].value);
            }
            out += "}";
        }
        out += "}";
    }
    out += "\n]}\n";
    return out;
}

void
ChromeTraceWriter::writeFile(const std::string &path,
                             const std::vector<SpanEvent> &events)
{
    writeTextFile(path, toJson(events));
}

void
writeChromeTrace(const std::string &path)
{
    ChromeTraceWriter::writeFile(path, drainSpans());
}

} // namespace dcbatt::obs

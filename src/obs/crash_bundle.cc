#include "obs/crash_bundle.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/text_output.h"
#include "util/annotations.h"
#include "util/logging.h"

namespace dcbatt::obs {

namespace {

struct CrashState
{
    util::Mutex mutex;
    std::string dir DCBATT_GUARDED_BY(mutex);
    size_t eventTail DCBATT_GUARDED_BY(mutex) = 256;
    std::map<std::string, std::string> context
        DCBATT_GUARDED_BY(mutex);
};

CrashState &
state()
{
    static CrashState *s = new CrashState();
    return *s;
}

thread_local std::function<double()> t_sim_time;

/** Reentrancy latch: a failure inside the dump must not recurse. */
thread_local bool t_dumping = false;

void
crashSink(const util::CheckFailure &failure)
{
    if (t_dumping)
        return;
    t_dumping = true;
    writeCrashBundle(failure);
    t_dumping = false;
}

/** mkdir -p without <filesystem> (this runs on the failure path). */
bool
makeDirs(const std::string &path)
{
    std::string partial;
    for (size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial.push_back(path[i]);
            continue;
        }
        if (!partial.empty()
            && mkdir(partial.c_str(), 0755) != 0
            && errno != EEXIST) {
            return false;
        }
        if (i < path.size())
            partial.push_back('/');
    }
    return true;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    return true;
}

} // namespace

void
setCrashBundleDir(std::string dir)
{
    CrashState &s = state();
    {
        util::MutexLock lock(s.mutex);
        s.dir = std::move(dir);
    }
    if (crashBundleArmed()) {
        // The bundle's event ring needs content regardless of
        // --events-out; the per-scope ring keeps memory bounded.
        setEventLoggingEnabled(true);
        util::setCheckFailureSink(&crashSink);
    } else {
        util::setCheckFailureSink(nullptr);
    }
}

std::string
crashBundleDir()
{
    CrashState &s = state();
    util::MutexLock lock(s.mutex);
    return s.dir;
}

bool
crashBundleArmed()
{
    return !crashBundleDir().empty();
}

void
setCrashBundleEventTail(size_t n)
{
    CrashState &s = state();
    util::MutexLock lock(s.mutex);
    s.eventTail = n;
}

void
setCrashContext(const std::string &key, const std::string &value)
{
    CrashState &s = state();
    util::MutexLock lock(s.mutex);
    s.context[key] = value;
}

void
clearCrashContext()
{
    CrashState &s = state();
    util::MutexLock lock(s.mutex);
    s.context.clear();
}

SimTimeGuard::SimTimeGuard(std::function<double()> provider)
    : previous_(std::move(t_sim_time))
{
    t_sim_time = std::move(provider);
}

SimTimeGuard::~SimTimeGuard()
{
    t_sim_time = std::move(previous_);
}

std::string
writeCrashBundle(const util::CheckFailure &failure)
{
    std::string dir;
    size_t tail;
    std::map<std::string, std::string> context;
    {
        CrashState &s = state();
        util::MutexLock lock(s.mutex);
        dir = s.dir;
        tail = s.eventTail;
        context = s.context;
    }
    if (dir.empty())
        return "";
    if (!makeDirs(dir)) {
        std::fprintf(stderr,
                     "[obs] crash bundle: cannot create %s: %s\n",
                     dir.c_str(), std::strerror(errno));
        return "";
    }

    double sim_time = t_sim_time ? t_sim_time() : -1.0;
    std::vector<EventRecord> events = lastEvents(tail);
    size_t dropped = droppedEventCount();

    std::string manifest = "{\n";
    manifest += util::strf("  \"schema\": \"%s\",\n",
                           kCrashBundleSchema);
    manifest += "  \"failure\": {";
    manifest += util::strf("\"kind\": \"%s\", ",
                           util::toString(failure.kind));
    manifest += "\"file\": ";
    appendJsonString(manifest, failure.file ? failure.file : "");
    manifest += util::strf(", \"line\": %d, \"condition\": ",
                           failure.line);
    appendJsonString(manifest,
                     failure.condition ? failure.condition : "");
    manifest += ", \"function\": ";
    appendJsonString(manifest,
                     failure.function ? failure.function : "");
    manifest += ", \"message\": ";
    appendJsonString(manifest, failure.message);
    manifest += "},\n";
    manifest += util::strf("  \"sim_time_s\": %.17g,\n", sim_time);
    manifest += "  \"scope\": ";
    appendJsonString(manifest, currentRunScope());
    manifest += ",\n  \"context\": {";
    bool first = true;
    for (const auto &[key, value] : context) {
        manifest += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(manifest, key);
        manifest += ": ";
        appendJsonString(manifest, value);
    }
    manifest += first ? "},\n" : "\n  },\n";
    manifest += util::strf(
        "  \"events\": %llu,\n  \"events_dropped\": %llu,\n",
        static_cast<unsigned long long>(events.size()),
        static_cast<unsigned long long>(dropped));
    manifest += "  \"files\": [\"failure.txt\", \"events.jsonl\", "
                "\"metrics.json\"]\n}\n";

    bool ok = writeFile(dir + "/manifest.json", manifest);
    ok = writeFile(dir + "/failure.txt", failure.describe() + "\n")
        && ok;
    ok = writeFile(dir + "/events.jsonl",
                   eventsToJsonl(events, dropped))
        && ok;
    ok = writeFile(dir + "/metrics.json",
                   snapshotMetrics().toJson())
        && ok;
    if (!ok) {
        std::fprintf(stderr,
                     "[obs] crash bundle: write into %s failed\n",
                     dir.c_str());
        return "";
    }
    std::fprintf(stderr, "[obs] crash bundle written: %s\n",
                 dir.c_str());
    return dir;
}

} // namespace dcbatt::obs

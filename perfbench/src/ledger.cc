#include "ledger.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

constexpr int kMaxDepth = 32;

struct Frame
{
    SpanKind kind;
    int64_t startNs;
    int64_t childNs;
};

/** One thread's accumulators; owned by the registry, never freed. */
struct ThreadLedger
{
    std::array<int64_t, kSpanKinds> selfNs{};
    std::array<int64_t, kSpanKinds> totalNs{};
    std::array<uint64_t, kSpanKinds> calls{};
    std::array<uint64_t, kTallies> tallies{};
    std::vector<double> chunkUs;
    int64_t edgeIdleNs = 0;
    int64_t sectionNs = 0;
    /** First item start / last item end in the open section; -1: none. */
    int64_t sectionFirstNs = -1;
    int64_t sectionLastNs = -1;
    std::array<Frame, kMaxDepth> stack{};
    int depth = 0;
};

std::atomic<bool> g_tracing{false};

std::mutex &
registryMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::vector<std::unique_ptr<ThreadLedger>> &
registry()
{
    static std::vector<std::unique_ptr<ThreadLedger>> ledgers;
    return ledgers;
}

ThreadLedger &
local()
{
    thread_local ThreadLedger *mine = [] {
        std::lock_guard<std::mutex> lock(registryMutex());
        registry().push_back(std::make_unique<ThreadLedger>());
        return registry().back().get();
    }();
    return *mine;
}

} // namespace

Layer
layerOf(SpanKind kind)
{
    switch (kind) {
      case SpanKind::TraceWindow:
        return Layer::Trace;
      case SpanKind::PowerBuild:
      case SpanKind::PowerStepRacks:
      case SpanKind::PowerObserveBreakers:
        return Layer::Power;
      case SpanKind::DynamoTick:
        return Layer::Dynamo;
      case SpanKind::CorePlan:
      case SpanKind::CoreSplit:
      case SpanKind::CoreAudit:
        return Layer::Core;
      case SpanKind::SimQueue:
      case SpanKind::SimStep:
      case SpanKind::SimCoordinate:
      case SpanKind::SimEvent:
      case SpanKind::Count:
        break;
    }
    return Layer::Sim;
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Trace:
        return "trace";
      case Layer::Power:
        return "power";
      case Layer::Dynamo:
        return "dynamo";
      case Layer::Core:
        return "core";
      case Layer::Sim:
      case Layer::Count:
        break;
    }
    return "sim";
}

double
LedgerTotals::layerSelf(Layer layer) const
{
    double sum = 0.0;
    for (size_t k = 0; k < kSpanKinds; ++k) {
        if (layerOf(static_cast<SpanKind>(k)) == layer)
            sum += selfS[k];
    }
    return sum;
}

void
setTracing(bool on)
{
    g_tracing.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

LedgerTotals
collectLedger()
{
    LedgerTotals out;
    std::lock_guard<std::mutex> lock(registryMutex());
    for (const auto &ledger : registry()) {
        for (size_t k = 0; k < kSpanKinds; ++k) {
            out.selfS[k] += static_cast<double>(ledger->selfNs[k]) * 1e-9;
            out.totalS[k] +=
                static_cast<double>(ledger->totalNs[k]) * 1e-9;
            out.calls[k] += ledger->calls[k];
        }
        for (size_t t = 0; t < kTallies; ++t)
            out.tallies[t] += ledger->tallies[t];
        out.chunkUs.insert(out.chunkUs.end(), ledger->chunkUs.begin(),
                           ledger->chunkUs.end());
        out.edgeIdleS += static_cast<double>(ledger->edgeIdleNs) * 1e-9;
        out.sectionS += static_cast<double>(ledger->sectionNs) * 1e-9;
    }
    return out;
}

void
tally(Tally t, uint64_t n)
{
    if (tracing())
        local().tallies[static_cast<size_t>(t)] += n;
}

void
recordChunk(int64_t start_ns, int64_t end_ns)
{
    if (!tracing())
        return;
    ThreadLedger &ledger = local();
    ledger.chunkUs.push_back(static_cast<double>(end_ns - start_ns)
                             * 1e-3);
    if (ledger.sectionFirstNs < 0)
        ledger.sectionFirstNs = start_ns;
    ledger.sectionLastNs = end_ns;
}

void
closeParallelSection(int64_t start_ns, int64_t end_ns, unsigned lanes)
{
    if (!tracing())
        return;
    // Registers the driving thread before the registry lock is taken.
    ThreadLedger &caller = local();
    std::lock_guard<std::mutex> lock(registryMutex());
    int64_t idle_ns = 0;
    unsigned busy_lanes = 0;
    for (auto &ledger : registry()) {
        if (ledger->sectionFirstNs < 0)
            continue;
        ++busy_lanes;
        idle_ns += (ledger->sectionFirstNs - start_ns)
            + (end_ns - ledger->sectionLastNs);
        ledger->sectionFirstNs = -1;
        ledger->sectionLastNs = -1;
    }
    if (lanes > busy_lanes)
        idle_ns += static_cast<int64_t>(lanes - busy_lanes)
            * (end_ns - start_ns);
    caller.edgeIdleNs += idle_ns;
    caller.sectionNs += end_ns - start_ns;
}

Span::Span(SpanKind kind) : active_(tracing())
{
    if (!active_)
        return;
    ThreadLedger &ledger = local();
    if (ledger.depth >= kMaxDepth) {
        active_ = false;
        return;
    }
    ledger.stack[static_cast<size_t>(ledger.depth++)] =
        Frame{kind, nowNs(), 0};
}

Span::~Span()
{
    if (!active_)
        return;
    int64_t end = nowNs();
    ThreadLedger &ledger = local();
    const Frame &frame =
        ledger.stack[static_cast<size_t>(--ledger.depth)];
    int64_t duration = end - frame.startNs;
    auto k = static_cast<size_t>(frame.kind);
    ledger.totalNs[k] += duration;
    ledger.selfNs[k] += duration - frame.childNs;
    ++ledger.calls[k];
    if (ledger.depth > 0)
        ledger.stack[static_cast<size_t>(ledger.depth - 1)].childNs +=
            duration;
}

} // namespace perfbench

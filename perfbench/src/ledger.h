/**
 * @file
 * Span ledger for the benchmark's traced run.
 *
 * The benchmark harness wraps every call it makes into a simulator
 * layer in a Span. Each span adds its duration to its kind's total
 * and its *self* time (duration minus the time covered by spans opened
 * inside it) to its kind's self total, so self times of all kinds add
 * up to the covered thread time without double counting. Counters ride
 * the same per-thread accumulators, so ratios are measured where the
 * work happens.
 *
 * Everything is per thread (no shared writes on the hot path) and
 * merged by collectLedger() once the workers are quiescent. With
 * tracing off a Span is one relaxed load and nothing else.
 */

#ifndef DCBATT_PERFBENCH_LEDGER_H_
#define DCBATT_PERFBENCH_LEDGER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** Where a span sits; each kind belongs to exactly one layer. */
enum class SpanKind : int
{
    TraceWindow,          ///< fetch one trace sample row, apply it
    PowerBuild,           ///< Topology::build
    PowerStepRacks,       ///< Topology::stepRacks (battery inside)
    PowerObserveBreakers, ///< Topology::observeBreakers
    DynamoTick,           ///< ControlPlane::tickAll
    CorePlan,             ///< ChargingCoordinator planInitial/onTick
    CoreSplit,            ///< core::splitRegionBudget
    CoreAudit,            ///< core::auditRegionBudget
    SimQueue,             ///< EventQueue::runUntil
    SimStep,              ///< one physics PeriodicTask firing
    SimCoordinate,        ///< driving-thread work between chunks
    SimEvent,             ///< one charging event, end to end
    Count
};

constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::Count);

enum class Layer : int
{
    Trace,
    Power,
    Dynamo,
    Core,
    Sim,
    Count
};

constexpr size_t kLayers = static_cast<size_t>(Layer::Count);

Layer layerOf(SpanKind kind);
const char *layerName(Layer layer);

/** Work counters recorded next to the spans. */
enum class Tally : int
{
    RackSteps,          ///< racks x stepRacks calls
    QueueEvents,        ///< events executed by EventQueue::runUntil
    MemoHits,           ///< SLA-current memo hits
    MemoMisses,
    ShelfQuiescent,     ///< PowerShelf step kinds
    ShelfLockstep,
    ShelfFull,
    TraceLookups,       ///< StreamingTraceSource::windowFor calls
    TraceWindowsBuilt,  ///< ... that synthesized a window
    TraceRefetches,     ///< ... of a window synthesized before
    TraceSamples,       ///< rack-samples synthesized
    TraceBuildNs,       ///< nanoseconds in lookups that synthesized
    Splits,             ///< splitRegionBudget calls
    Count
};

constexpr size_t kTallies = static_cast<size_t>(Tally::Count);

/** Merged view of every thread's accumulators. */
struct LedgerTotals
{
    std::array<double, kSpanKinds> selfS{};
    std::array<double, kSpanKinds> totalS{};
    std::array<uint64_t, kSpanKinds> calls{};
    std::array<uint64_t, kTallies> tallies{};
    /** Durations of parallel work items (one event / shard chunk). */
    std::vector<double> chunkUs;
    /**
     * Idle time of pool lanes at the edges of a parallel section:
     * before their first item and after their last (thread-seconds).
     */
    double edgeIdleS = 0.0;
    /** Summed wall time of every closed parallel section. */
    double sectionS = 0.0;

    double self(SpanKind k) const { return selfS[static_cast<size_t>(k)]; }
    double total(SpanKind k) const
    {
        return totalS[static_cast<size_t>(k)];
    }
    uint64_t tally(Tally t) const
    {
        return tallies[static_cast<size_t>(t)];
    }
    double layerSelf(Layer layer) const;
};

void setTracing(bool on);
bool tracing();

/** Merge every thread's accumulators. Workers must be quiescent. */
LedgerTotals collectLedger();

/** Steady-clock nanoseconds. */
int64_t nowNs();

/** Add @p n to a tally of the calling thread (tracing only). */
void tally(Tally t, uint64_t n = 1);

/**
 * Mark a parallel work item that ran on the calling thread over
 * [start_ns, end_ns] (tracing only).
 */
void recordChunk(int64_t start_ns, int64_t end_ns);

/**
 * Close a parallel section that began at @p start_ns on @p lanes
 * threads: charge each lane's idle time before its first and after
 * its last item (lanes that ran nothing idle throughout), then clear
 * the per-section marks. Call from the driving thread after the join.
 */
void closeParallelSection(int64_t start_ns, int64_t end_ns,
                          unsigned lanes);

/** Scoped span; a no-op while tracing is off. */
class Span
{
  public:
    explicit Span(SpanKind kind);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_;
};

} // namespace perfbench

#endif // DCBATT_PERFBENCH_LEDGER_H_

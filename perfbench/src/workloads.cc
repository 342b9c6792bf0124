#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <string_view>

#include "battery/batch_charge_kernel.h"
#include "core/charging_event_sim.h"
#include "harness.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "sim/region_engine.h"
#include "trace/trace_cache.h"
#include "trace/trace_generator.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace dcbatt;
using core::PolicyKind;

namespace {

/** Every workload runs on a 4-worker pool (the benchmark host's nproc). */
constexpr unsigned kWorkerThreads = 4;

// ---------------------------------------------------------------------
// Small helpers.

double
secondsSince(int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Linear-interpolated quantile (the numpy/statistics 'inclusive' rule). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

/**
 * CPU seconds of the calling thread or of the whole process. The timed
 * metrics use CPU time, not wall time: on a shared virtual host the
 * vCPUs are taken away for whole seconds at a time (steal), which moves
 * wall time by up to 2x between runs but leaves CPU time unchanged.
 */
double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpuS()
{
    return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMib()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** FNV-1a over the exact bytes of every value fed in. */
class Digest
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 1099511628211ull;
        }
    }
    void add(double v) { bytes(&v, sizeof v); }
    void add(int64_t v) { bytes(&v, sizeof v); }
    void
    add(const std::vector<double> &values)
    {
        bytes(values.data(), values.size() * sizeof(double));
    }
    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 1469598103934665603ull;
};

std::string
jsonList(const std::vector<double> &values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i)
        out += util::strf(i ? ", %.6g" : "%.6g", values[i]);
    return out + "]";
}

std::string
hex(uint64_t v)
{
    return util::strf("\"%016llx\"", static_cast<unsigned long long>(v));
}

/** Outcomes, SLA counts, peak power and cap of one charging event. */
uint64_t
eventDigest(const core::ChargingEventResult &r)
{
    Digest d;
    d.add(r.peakPower.value());
    d.add(r.maxCap.value());
    d.add(r.maxCapFractionOfIt);
    d.add(r.meanInitialDod);
    d.add(static_cast<int64_t>(r.overloadSteps));
    d.add(static_cast<int64_t>(r.breakerTripped));
    for (size_t p = 0; p < 3; ++p) {
        d.add(static_cast<int64_t>(r.racksByPriority[p]));
        d.add(static_cast<int64_t>(r.slaMetByPriority[p]));
    }
    for (const core::RackOutcome &rack : r.racks) {
        d.add(rack.initialDod);
        d.add(rack.chargeDuration ? rack.chargeDuration->value() : -1.0);
        d.add(static_cast<int64_t>(rack.slaMet | rack.sawOutage << 1
                                   | rack.everCapped << 2
                                   | rack.everHeld << 3));
    }
    d.add(r.msbPower.values());
    d.add(r.capPower.values());
    return d.value();
}

/** Per-MSB outcomes, SLA counts, peak power and the region tapes. */
uint64_t
regionDigest(const sim::RegionResult &r)
{
    Digest d;
    for (const sim::RegionMsbOutcome &m : r.msbs) {
        d.add(m.peakMw);
        d.add(static_cast<int64_t>(m.overloadSteps));
        d.add(static_cast<int64_t>(m.budgetOverSteps));
        d.add(static_cast<int64_t>(m.breakerTripped));
        d.add(m.meanInitialDod);
        for (size_t p = 0; p < 3; ++p) {
            d.add(static_cast<int64_t>(m.racksByPriority[p]));
            d.add(static_cast<int64_t>(m.slaMetByPriority[p]));
        }
        d.add(static_cast<int64_t>(m.outages));
        d.add(static_cast<int64_t>(m.everCapped));
        d.add(static_cast<int64_t>(m.everHeld));
        d.add(m.meanGrantMw);
        d.add(m.minGrantMw);
        d.add(m.maxGrantMw);
        d.add(m.itEnergyMwh);
        d.add(m.rechargeEnergyMwh);
        d.add(static_cast<int64_t>(m.traceWindowsGenerated));
        d.add(static_cast<int64_t>(m.traceRefetches));
    }
    d.add(r.regionPowerMw.values());
    d.add(r.capMw.values());
    d.add(r.grantMw.values());
    d.add(r.unmetMw.values());
    d.add(r.peakRegionMw);
    d.add(static_cast<int64_t>(r.coordinationTicks));
    d.add(static_cast<int64_t>(r.budgetAudits));
    return d.value();
}

/** Deterministic Fisher-Yates permutation from SplitMix64(seed, round). */
std::vector<size_t>
permutation(size_t n, uint64_t seed, uint64_t round)
{
    uint64_t state = seed * 0x9e3779b97f4a7c15ull + round;
    auto next = [&state] {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[next() % i]);
    return order;
}

uint64_t
counterValue(const obs::MetricsSnapshot &snap, std::string_view name)
{
    const obs::MetricValue *m = snap.find(name);
    return m ? m->count : 0;
}

/** Program counters the traced run reads from the obs registry. */
enum RegistryCounter
{
    kBatchLanes,
    kControlTicks,
    kCapReductions,
    kCmdSetCurrent,
    kRegistryCounterCount
};
constexpr std::string_view kRegistryCounterNames[kRegistryCounterCount] = {
    "battery.batch_lanes", "dynamo.control_ticks", "dynamo.cap_reductions",
    "dynamo.cmd_set_current"};

using CounterArray = std::array<uint64_t, kRegistryCounterCount>;

CounterArray
readCounters()
{
    obs::MetricsSnapshot snap = obs::snapshotMetrics();
    CounterArray out{};
    for (size_t i = 0; i < kRegistryCounterCount; ++i)
        out[i] = counterValue(snap, kRegistryCounterNames[i]);
    return out;
}

// ---------------------------------------------------------------------
// The paper's Section V-B setup (bench/bench_common.cc).

trace::TraceGenSpec
paperTraceSpec()
{
    trace::TraceGenSpec spec;
    spec.rackCount = 316;
    spec.startTime = util::hours(10.0);
    spec.duration = util::hours(8.0);
    spec.step = util::Seconds(3.0);
    spec.priorities = trace::paperMsbPriorities();
    return spec;
}

struct PaperCell
{
    PolicyKind policy;
    double limitMw;
    double dod;
};

constexpr PolicyKind kPolicies[] = {
    PolicyKind::OriginalLocal, PolicyKind::VariableLocal,
    PolicyKind::GlobalRate, PolicyKind::PriorityAware};
// Spelled out (not 2.20 + 0.05 k) so 2.3 and 2.5 are the exact doubles
// the figure benches use.
constexpr double kSweepLimitsMw[] = {2.20, 2.25, 2.30, 2.35, 2.40,
                                     2.45, 2.50, 2.55, 2.60};
constexpr double kShrinkLimitsMw[] = {2.30, 2.50};
constexpr double kDods[] = {0.3, 0.5, 0.7};

std::vector<PaperCell>
paperGrid(bool shrink)
{
    std::vector<PaperCell> grid;
    std::vector<double> limits = shrink
        ? std::vector<double>(std::begin(kShrinkLimitsMw),
                              std::end(kShrinkLimitsMw))
        : std::vector<double>(std::begin(kSweepLimitsMw),
                              std::end(kSweepLimitsMw));
    for (PolicyKind policy : kPolicies)
        for (double limit : limits)
            for (double dod : kDods)
                grid.push_back({policy, limit, dod});
    return grid;
}

core::ChargingEventConfig
paperConfig(const PaperCell &cell)
{
    core::ChargingEventConfig config;
    config.policy = cell.policy;
    config.msbLimit = util::megawatts(cell.limitMw);
    config.targetMeanDod = cell.dod;
    config.priorities = trace::paperMsbPriorities();
    return config;
}

/**
 * Table III, maximum server power capping (kW) for the Fig. 13 cells.
 * paperKw: the paper's Table III (Malla et al., MICRO 2020). oursKw:
 * this simulator's values as recorded in EXPERIMENTS.md ("Fig. 13 +
 * Table III"), printed there with %.0f.
 */
struct TableIIICell
{
    PolicyKind policy;
    double limitMw;
    double dod;
    double paperKw;
    double oursKw;
};

constexpr TableIIICell kTableIII[] = {
    {PolicyKind::OriginalLocal, 2.5, 0.3, 149, 193},
    {PolicyKind::OriginalLocal, 2.3, 0.3, 349, 393},
    {PolicyKind::OriginalLocal, 2.5, 0.5, 178, 173},
    {PolicyKind::OriginalLocal, 2.3, 0.5, 378, 373},
    {PolicyKind::OriginalLocal, 2.5, 0.7, 205, 162},
    {PolicyKind::OriginalLocal, 2.3, 0.7, 405, 362},
    {PolicyKind::VariableLocal, 2.5, 0.3, 0, 0},
    {PolicyKind::VariableLocal, 2.3, 0.3, 45, 47},
    {PolicyKind::VariableLocal, 2.5, 0.5, 0, 0},
    {PolicyKind::VariableLocal, 2.3, 0.5, 68, 80},
    {PolicyKind::VariableLocal, 2.5, 0.7, 0, 0},
    {PolicyKind::VariableLocal, 2.3, 0.7, 171, 200},
    {PolicyKind::PriorityAware, 2.5, 0.3, 0, 0},
    {PolicyKind::PriorityAware, 2.3, 0.3, 0, 0},
    {PolicyKind::PriorityAware, 2.5, 0.5, 0, 0},
    {PolicyKind::PriorityAware, 2.3, 0.5, 0, 0},
    {PolicyKind::PriorityAware, 2.5, 0.7, 0, 0},
    {PolicyKind::PriorityAware, 2.3, 0.7, 0, 0},
};

bool
sameCell(const PaperCell &cell, const TableIIICell &t)
{
    return t.policy == cell.policy && t.limitMw == cell.limitMw
        && t.dod == cell.dod;
}

bool
isTableIIICell(const PaperCell &cell)
{
    return std::any_of(std::begin(kTableIII), std::end(kTableIII),
                       [&](const TableIIICell &t) {
                           return sameCell(cell, t);
                       });
}

/** What the benchmark keeps of one charging event. */
struct EventSummary
{
    uint64_t digest = 0;
    double maxCapKw = 0.0;
    int slaMet = 0;
    int racks = 0;
    bool breakerTripped = false;
    double rackHours = 0.0;
    /** CPU time of the event on its worker thread. */
    double cpuMs = 0.0;
    bool ok = true;
    std::string error;
};

EventSummary
summarize(const core::ChargingEventResult &r,
          const core::ChargingEventConfig &config)
{
    EventSummary s;
    s.digest = eventDigest(r);
    s.maxCapKw = util::toKilowatts(r.maxCap);
    s.slaMet = r.slaMetTotal();
    s.racks = static_cast<int>(r.racks.size());
    s.breakerTripped = r.breakerTripped;
    s.rackHours = static_cast<double>(r.racks.size())
        * static_cast<double>(r.msbPower.size())
        * config.physicsStep.value() / 3600.0;
    return s;
}

/** One parallel pass over the grid; results land in grid order. */
struct PaperRound
{
    std::vector<EventSummary> events;
    double wallS = 0.0;
    /** Process CPU time of the pass (every worker). */
    double cpuS = 0.0;
};

PaperRound
runPaperRound(util::ThreadPool &pool, const std::vector<PaperCell> &grid,
              const std::vector<size_t> &order, bool harness)
{
    const trace::TraceGenSpec spec = paperTraceSpec();
    PaperRound round;
    round.events.resize(grid.size());
    int64_t start = nowNs();
    double cpu_start = processCpuS();
    std::vector<std::pair<size_t, std::future<EventSummary>>> futures;
    futures.reserve(grid.size());
    for (size_t idx : order) {
        // Each task takes its trace handle from the process-wide cache,
        // as a SweepTask with sharedTraces does.
        std::shared_ptr<const trace::TraceSet> traces =
            trace::sharedTraces(spec);
        futures.emplace_back(
            idx, pool.submit([config = paperConfig(grid[idx]), traces,
                              harness] {
                int64_t t0 = nowNs();
                double cpu0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
                core::ChargingEventResult r = harness
                    ? runChargingEventTraced(config, *traces)
                    : core::runChargingEvent(config, *traces);
                double cpu_ms =
                    (cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0) * 1e3;
                recordChunk(t0, nowNs());
                EventSummary s = summarize(r, config);
                s.cpuMs = cpu_ms;
                return s;
            }));
    }
    for (auto &[idx, future] : futures) {
        try {
            round.events[idx] = future.get();
        } catch (const std::exception &e) {
            round.events[idx].ok = false;
            round.events[idx].error = e.what();
        }
    }
    int64_t end = nowNs();
    closeParallelSection(start, end, pool.size());
    round.wallS = static_cast<double>(end - start) * 1e-9;
    round.cpuS = processCpuS() - cpu_start;
    return round;
}

/** Table III accuracy from one pass over (at least) the 18 cells. */
struct Accuracy
{
    double maeKw = 0.0;
    std::vector<std::string> problems;
};

Accuracy
tableIIIAccuracy(const std::vector<PaperCell> &grid,
                 const std::vector<EventSummary> &events)
{
    Accuracy acc;
    double abs_sum = 0.0;
    for (const TableIIICell &t : kTableIII) {
        const EventSummary *found = nullptr;
        for (size_t i = 0; i < grid.size(); ++i) {
            if (sameCell(grid[i], t))
                found = &events[i];
        }
        if (found == nullptr || !found->ok) {
            acc.problems.push_back("Table III cell not run");
            continue;
        }
        abs_sum += std::fabs(found->maxCapKw - t.paperKw);
        double shown = std::strtod(
            util::strf("%.0f", found->maxCapKw).c_str(), nullptr);
        if (shown != t.oursKw) {
            acc.problems.push_back(util::strf(
                "Table III %s %.1f MW DOD %.1f: %.0f kW, expected %.0f",
                core::toString(t.policy), t.limitMw, t.dod,
                found->maxCapKw, t.oursKw));
        }
    }
    acc.maeKw = abs_sum / static_cast<double>(std::size(kTableIII));
    return acc;
}

/** Run the 18 Table III cells once (untimed) and score them. */
Accuracy
tableIIIStandalone(util::ThreadPool &pool)
{
    std::vector<PaperCell> cells;
    for (const TableIIICell &t : kTableIII)
        cells.push_back({t.policy, t.limitMw, t.dod});
    std::vector<size_t> order = permutation(cells.size(), 0, 0);
    PaperRound round = runPaperRound(pool, cells, order, false);
    return tableIIIAccuracy(cells, round.events);
}

/** Paper invariants of one event; empty when it holds. */
std::string
eventInvariant(const PaperCell &cell, const EventSummary &s)
{
    if (!s.ok)
        return "aborted: " + s.error;
    if (cell.policy == PolicyKind::PriorityAware && s.breakerTripped)
        return "priority-aware event tripped the MSB breaker";
    if (cell.policy == PolicyKind::PriorityAware && isTableIIICell(cell)
        && s.maxCapKw != 0.0)
        return "priority-aware Table III cell capped servers";
    return {};
}

// ---------------------------------------------------------------------
// Region workloads.

/** region_surge's budget over the run's IT envelope. */
constexpr double kSurgeBudgetMargin = 1.01;

power::RegionSpec
regionSpec(const std::string &workload, uint64_t seed, bool shrink)
{
    const bool surge = workload == "region_surge";
    power::RegionSpec spec;
    spec.name = workload;
    spec.seed = seed;
    spec.msbs = surge ? (shrink ? 6 : 48) : (shrink ? 2 : 8);
    spec.racksPerMsb = surge ? (shrink ? 32 : 64) : (shrink ? 60 : 300);
    spec.suitesPerBuilding = std::min(4, spec.msbs);
    double hours = surge ? (shrink ? 2.0 : 6.0) : (shrink ? 4.0 : 24.0);
    spec.duration = util::hours(hours);
    // The per-MSB load model scales with the rack count (as
    // bench/region_scale does), keeping ~6.7 kW per rack.
    double rack_share = static_cast<double>(spec.racksPerMsb) / 300.0;
    spec.msbAggregateMean = util::Watts(2.0e6 * rack_share);
    spec.msbAggregateAmplitude = util::Watts(0.15e6 * rack_share);
    spec.msbLimit = util::Watts(2.5e6 * rack_share);
    if (surge) {
        // Every open transition at the same instant; coordination on
        // the Dynamo cadence. The load model peaks at 14:00, so over
        // 00:00-06:00 IT demand rises toward msbs x (mean - amplitude
        // / 2). The budget sits 1% above that: IT alone always fits,
        // but at the surge the headroom is below the fleet's 1 A
        // recharge floor, so recharge -- not IT load -- binds.
        spec.coordinationPeriod = util::Seconds(3.0);
        spec.firstOutage = util::hours(shrink ? 0.5 : 1.0);
        spec.outageStagger = util::Seconds(0.0);
        spec.regionBudget = util::Watts(
            kSurgeBudgetMargin * static_cast<double>(spec.msbs)
            * (spec.msbAggregateMean - spec.msbAggregateAmplitude * 0.5)
                  .value());
    } else {
        // Outages staggered across the first quarter of the day; the
        // budget pinned at today's 85% default (17.0 MW for 8 MSBs).
        spec.coordinationPeriod = util::Seconds(60.0);
        spec.firstOutage = util::minutes(20.0);
        spec.outageStagger =
            util::Seconds(hours * 3600.0 * 0.25 / spec.msbs);
        spec.regionBudget = shrink
            ? util::Watts(0.85 * spec.msbs * spec.msbLimit.value())
            : util::megawatts(17.0);
    }
    return spec;
}

/**
 * The region's set-up as the engine performs it: @p spec cut to its
 * first coordination period, with every open transition moved inside
 * it. runRegion then builds its pool and every MSB shard (topology,
 * control plane, streaming trace source primed with its first window),
 * splits the budget once and steps one chunk. The cut spec's trace
 * windows are one period long, so first-window synthesis is mostly
 * left out.
 */
power::RegionSpec
firstPeriodSpec(power::RegionSpec spec)
{
    spec.duration = spec.coordinationPeriod;
    spec.firstOutage = util::Seconds(0.0);
    spec.outageStagger = util::Seconds(0.0);
    spec.openTransitionLength = spec.coordinationPeriod * 0.5;
    return spec;
}

// ---------------------------------------------------------------------
// Report assembly.

class Reporter
{
  public:
    explicit Reporter(RunReport &report) : report_(report) {}

    void
    metric(const char *name, double value, const char *unit)
    {
        report_.metrics.push_back({name, value, unit});
    }
    void
    manifest(const char *key, std::string json)
    {
        report_.manifest.emplace_back(key, std::move(json));
    }
    void
    fail(std::string problem)
    {
        report_.correct = false;
        report_.problems.push_back(std::move(problem));
    }

  private:
    RunReport &report_;
};

/** Rounds start while the previous ones' mean still fits the budget. */
bool
roomForAnother(double elapsed_s, size_t rounds, double budget_s,
               size_t min_rounds)
{
    if (rounds < min_rounds)
        return true;
    double mean = elapsed_s / static_cast<double>(rounds);
    return elapsed_s + mean <= budget_s;
}

/**
 * Times a workload's set-up in batches, one after the warm-up and one
 * after every timed round; setup_s is the median sample. The host's
 * speed drifts on a scale of seconds, so samples spread over the run
 * give a steadier median than samples taken back to back. The
 * measurement budget counts the timed rounds only, not the batches.
 */
class SetupTimer
{
  public:
    SetupTimer(std::function<void()> setup, int batch)
        : setup_(std::move(setup)), batch_(batch)
    {
    }

    void
    runBatch()
    {
        for (int i = 0; i < batch_; ++i) {
            double start = processCpuS();
            setup_();
            samples_.push_back(processCpuS() - start);
        }
    }

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::function<void()> setup_;
    int batch_;
    std::vector<double> samples_;
};

/**
 * Set-up samples per batch. One paper_sweep set-up takes ~0.35 s of
 * CPU, one region set-up 15-40 ms.
 */
constexpr int kPaperSetupBatch = 2;
constexpr int kRegionSetupBatch = 12;

/**
 * sim_digest of each workload at the default seed, full shapes (see
 * perfbench/BASELINE.md). A change that only speeds up the simulator
 * leaves these bit-identical, so a mismatch fails the run. On
 * paper_sweep the seed only reorders dispatch, so its digest holds for
 * every seed.
 */
constexpr uint64_t kDefaultSeed = 1;
struct ExpectedDigest
{
    const char *workload;
    uint64_t digest;
};
constexpr ExpectedDigest kExpectedDigests[] = {
    {"paper_sweep", 0x6b31147ca1c255e8ull},
    {"region_day", 0xdb7c8e944a530181ull},
    {"region_surge", 0x16e52fefe433fe8aull},
};

void
checkExpectedDigest(const RunOptions &opt, uint64_t digest, Reporter &out)
{
    if (opt.shrink
        || (opt.workload != "paper_sweep" && opt.seed != kDefaultSeed))
        return;
    for (const ExpectedDigest &e : kExpectedDigests) {
        if (opt.workload == e.workload && digest != e.digest)
            out.fail(util::strf(
                "sim_digest %016llx, recorded %016llx: simulated outcomes "
                "changed",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(e.digest)));
    }
}

/** Per-round throughput on both clocks (wall time is context only). */
void
manifestRounds(Reporter &out, const std::vector<double> &cpu_throughputs,
               const std::vector<double> &wall_throughputs)
{
    out.manifest("round_rack_hours_per_cpu_s", jsonList(cpu_throughputs));
    out.manifest("round_rack_hours_per_wall_s", jsonList(wall_throughputs));
    out.manifest("wall_rack_hours_per_s",
                 util::strf("%.6g", quantile(wall_throughputs, 0.5)));
}

/** Median set-up time, with every sample in the manifest. */
void
reportSetup(Reporter &out, const SetupTimer &setup)
{
    out.metric("setup_s", quantile(setup.samples(), 0.5), "s");
    out.manifest("setup_cpu_s", jsonList(setup.samples()));
}

/** Per-layer ledger of the traced rounds, as metrics. */
struct TracedTotals
{
    LedgerTotals ledger;
    CounterArray counters{};
    double tracedWallS = 0.0;
    /** Process CPU time of the traced and of the engine rounds. */
    double tracedCpuS = 0.0;
    double engineCpuS = 0.0;
    size_t rounds = 0;
    unsigned lanes = 1;
    /**
     * paper_sweep: the driving thread only waits on the sweep. Regions:
     * it is a lane, joining every chunk and coordinating between them.
     */
    bool sweep = false;
    bool digestsMatch = true;
    /** Workload-specific trace-layer inputs. */
    double generateS = 0.0;
    double samplesGenerated = 0.0;
    double cacheHitRatio = 0.0;
};

void
reportLayers(Reporter &out, const TracedTotals &t)
{
    const LedgerTotals &L = t.ledger;
    const double R = static_cast<double>(std::max<size_t>(t.rounds, 1));
    const double thread_s = t.tracedWallS * t.lanes;
    const double serial_s = std::max(0.0, t.tracedWallS - L.sectionS);
    const double serial_idle_s =
        serial_s * (t.lanes - (t.sweep ? 0 : 1));
    const double wait_s = L.edgeIdleS + serial_idle_s;
    double named_s = 0.0;
    for (double s : L.selfS)
        named_s += s;
    auto per = [&](double v) { return v / R; };
    auto count = [&](Tally k) {
        return static_cast<double>(L.tally(k)) / R;
    };

    out.metric("trace.window_s", per(L.total(SpanKind::TraceWindow)), "s");
    out.metric("trace.windows", count(Tally::TraceWindowsBuilt), "count");
    out.metric("trace.refetch_ratio",
               ratio(static_cast<double>(L.tally(Tally::TraceRefetches)),
                     static_cast<double>(
                         L.tally(Tally::TraceWindowsBuilt))),
               "ratio");
    out.metric("trace.ns_per_sample",
               ratio(t.generateS * 1e9, t.samplesGenerated), "ns");
    out.metric("trace.generate_s", t.generateS, "s");
    out.metric("trace.cache_hit_ratio", t.cacheHitRatio, "ratio");

    double step_s = L.total(SpanKind::PowerStepRacks);
    double rack_steps = static_cast<double>(L.tally(Tally::RackSteps));
    out.metric("power.step_racks_s", per(step_s), "s");
    out.metric("power.observe_breakers_s",
               per(L.total(SpanKind::PowerObserveBreakers)), "s");
    out.metric("power.rack_steps", count(Tally::RackSteps), "count");
    out.metric("power.ns_per_rack_step", ratio(step_s * 1e9, rack_steps),
               "ns");
    double shelf_all = static_cast<double>(L.tally(Tally::ShelfQuiescent)
                                           + L.tally(Tally::ShelfLockstep)
                                           + L.tally(Tally::ShelfFull));
    out.metric("battery.full_step_share",
               ratio(static_cast<double>(L.tally(Tally::ShelfFull)),
                     shelf_all),
               "ratio");
    out.metric("battery.batch_lanes",
               static_cast<double>(t.counters[kBatchLanes]) / R, "count");

    out.metric("dynamo.tick_s", per(L.self(SpanKind::DynamoTick)), "s");
    out.metric("dynamo.control_ticks",
               static_cast<double>(t.counters[kControlTicks]) / R, "count");
    out.metric("dynamo.cap_reductions",
               static_cast<double>(t.counters[kCapReductions]) / R, "count");
    out.metric("dynamo.cmd_set_current",
               static_cast<double>(t.counters[kCmdSetCurrent]) / R, "count");

    out.metric("core.plan_s", per(L.total(SpanKind::CorePlan)), "s");
    out.metric("core.plan_calls",
               static_cast<double>(
                   L.calls[static_cast<size_t>(SpanKind::CorePlan)])
                   / R,
               "count");
    double hits = static_cast<double>(L.tally(Tally::MemoHits));
    out.metric("core.sla_memo_hit_ratio",
               ratio(hits,
                     hits + static_cast<double>(L.tally(Tally::MemoMisses))),
               "ratio");
    out.metric("core.split_s", per(L.total(SpanKind::CoreSplit)), "s");
    out.metric("core.audit_s", per(L.total(SpanKind::CoreAudit)), "s");
    out.metric("core.splits", count(Tally::Splits), "count");

    out.metric("sim.queue_self_s", per(L.self(SpanKind::SimQueue)), "s");
    out.metric("sim.events", count(Tally::QueueEvents), "count");
    out.metric("sim.coordinate_s", per(L.self(SpanKind::SimCoordinate)),
               "s");
    out.metric("sim.barrier_wait_s", per(L.edgeIdleS), "s");
    out.metric("sim.worker_idle_frac", ratio(wait_s, thread_s), "frac");
    out.metric("sim.chunk_us_p50", quantile(L.chunkUs, 0.50), "us");
    out.metric("sim.chunk_us_p99", quantile(L.chunkUs, 0.99), "us");
    out.metric("sweep.worker_idle_frac",
               t.sweep ? ratio(wait_s, thread_s) : 0.0, "frac");
    out.metric("trace_overhead_frac",
               ratio(t.tracedCpuS, t.engineCpuS) - 1.0, "frac");

    // The ledger: layer self times + waiting + unattributed = the
    // traced host time on every lane. When the harness digest differs
    // from the engine's, nothing is attributed to a layer.
    const double attribute = t.digestsMatch ? 1.0 : 0.0;
    for (size_t l = 0; l < kLayers; ++l) {
        auto layer = static_cast<Layer>(l);
        std::string name = std::string(layerName(layer)) + ".self_frac";
        out.metric(name.c_str(),
                   attribute * ratio(L.layerSelf(layer), thread_s),
                   "frac");
    }
    out.metric("wait_frac", ratio(wait_s, thread_s), "frac");
    out.metric("unattributed_frac",
               ratio(thread_s - wait_s - attribute * named_s, thread_s),
               "frac");
    out.metric("traced_host_s", t.tracedWallS / R, "s");
    out.metric("harness_digest_match", t.digestsMatch ? 1.0 : 0.0,
               "bool");
}

// ---------------------------------------------------------------------
// paper_sweep.

void
runPaperSweep(const RunOptions &opt, util::ThreadPool &pool,
              RunReport &report)
{
    Reporter out(report);
    const std::vector<PaperCell> grid = paperGrid(opt.shrink);
    const trace::TraceGenSpec spec = paperTraceSpec();
    out.manifest("grid_events", std::to_string(grid.size()));

    if (opt.traced) {
        TracedTotals t;
        t.lanes = pool.size();
        t.sweep = true;
        t.samplesGenerated =
            static_cast<double>(spec.rackCount)
            * std::ceil(spec.duration.value() / spec.step.value());
        trace::TraceCacheStats cache_before = trace::traceCacheStats();
        {
            // One cold trace synthesis, timed on its own.
            trace::clearTraceCache();
            int64_t start = nowNs();
            trace::sharedTraces(spec)->warmCaches();
            t.generateS = secondsSince(start);
        }
        // Untimed warm-up, as in the untraced run.
        runPaperRound(pool, grid, permutation(grid.size(), opt.seed, 0),
                      false);
        int64_t budget_start = nowNs();
        while (roomForAnother(secondsSince(budget_start), t.rounds,
                              opt.seconds, 1)) {
            std::vector<size_t> order =
                permutation(grid.size(), opt.seed, t.rounds + 1);
            PaperRound engine = runPaperRound(pool, grid, order, false);
            t.engineCpuS += engine.cpuS;
            CounterArray before = readCounters();
            setTracing(true);
            PaperRound traced = runPaperRound(pool, grid, order, true);
            setTracing(false);
            CounterArray after = readCounters();
            for (size_t i = 0; i < kRegistryCounterCount; ++i)
                t.counters[i] += after[i] - before[i];
            t.tracedWallS += traced.wallS;
            t.tracedCpuS += traced.cpuS;
            ++t.rounds;
            for (size_t i = 0; i < grid.size(); ++i) {
                ++report.attempted;
                std::string bad = eventInvariant(grid[i], engine.events[i]);
                if (!bad.empty()) {
                    ++report.failed;
                    out.fail(bad);
                }
                if (engine.events[i].digest != traced.events[i].digest)
                    t.digestsMatch = false;
            }
        }
        trace::TraceCacheStats cache_after = trace::traceCacheStats();
        double hits = static_cast<double>(cache_after.hits - cache_before.hits);
        double misses =
            static_cast<double>(cache_after.misses - cache_before.misses);
        t.cacheHitRatio = ratio(hits, hits + misses);
        t.ledger = collectLedger();
        reportLayers(out, t);
        out.manifest("rounds", std::to_string(t.rounds));
        return;
    }

    // Checks one event against the paper invariants and, for timed
    // repetitions, against the warm-up pass's digest.
    auto check = [&](size_t i, const EventSummary &s,
                     const EventSummary *reference) {
        ++report.attempted;
        std::string bad = eventInvariant(grid[i], s);
        if (bad.empty() && reference && s.digest != reference->digest)
            bad = "digest differs from the warm-up pass";
        if (bad.empty())
            return true;
        ++report.failed;
        out.fail(util::strf("%s %.2f MW DOD %.1f: %s",
                            core::toString(grid[i].policy), grid[i].limitMw,
                            grid[i].dod, bad.c_str()));
        return false;
    };

    // One untimed warm-up pass lets the allocator and the workers'
    // per-thread arenas settle; its outcomes are the reference every
    // timed pass must reproduce and the source of the simulated metrics.
    const std::vector<EventSummary> first =
        runPaperRound(pool, grid, permutation(grid.size(), opt.seed, 0),
                      false)
            .events;
    for (size_t i = 0; i < grid.size(); ++i)
        check(i, first[i], nullptr);

    // Set-up: a cold trace-cache fill plus the grid. Timed only after
    // the warm-up pass, so the host's ramp-up after process start does
    // not land in it.
    SetupTimer setup(
        [&] {
            trace::clearTraceCache();
            trace::sharedTraces(spec)->warmCaches();
            std::vector<core::ChargingEventConfig> configs;
            for (const PaperCell &cell : grid)
                configs.push_back(paperConfig(cell));
        },
        kPaperSetupBatch);
    setup.runBatch();

    std::vector<double> event_ms;
    std::vector<double> throughputs;
    std::vector<double> wall_throughputs;
    double measured_s = 0.0;
    size_t rounds = 0;
    while (roomForAnother(measured_s, rounds, opt.seconds, 2)) {
        std::vector<size_t> order =
            permutation(grid.size(), opt.seed, rounds + 1);
        PaperRound round = runPaperRound(pool, grid, order, false);
        measured_s += round.wallS;
        setup.runBatch();
        double rack_hours = 0.0;
        for (size_t i = 0; i < grid.size(); ++i) {
            const EventSummary &s = round.events[i];
            if (!check(i, s, &first[i]))
                continue;
            event_ms.push_back(s.cpuMs);
            rack_hours += s.rackHours;
        }
        throughputs.push_back(rack_hours / round.cpuS);
        wall_throughputs.push_back(rack_hours / round.wallS);
        ++rounds;
    }
    double rss = peakRssMib();

    Accuracy acc = tableIIIAccuracy(grid, first);
    for (const std::string &p : acc.problems)
        out.fail(p);
    double sla_met = 0.0, racks = 0.0, max_cap = 0.0;
    Digest digest;
    for (const EventSummary &s : first) {
        sla_met += s.slaMet;
        racks += s.racks;
        max_cap = std::max(max_cap, s.maxCapKw);
        digest.add(static_cast<int64_t>(s.digest));
    }

    reportSetup(out, setup);
    out.metric("sim_rack_hours_per_cpu_s", quantile(throughputs, 0.5),
               "rack-h/cpu-s");
    out.metric("event_cpu_ms_p50", quantile(event_ms, 0.5), "ms");
    out.metric("event_cpu_ms_p90", quantile(event_ms, 0.9), "ms");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("ops_ok_frac",
               1.0 - ratio(static_cast<double>(report.failed),
                           static_cast<double>(report.attempted)),
               "frac");
    out.metric("table3_cap_mae_kw", acc.maeKw, "kW");
    out.metric("sla_met_frac", ratio(sla_met, racks), "frac");
    out.metric("max_cap_kw", max_cap, "kW");
    out.manifest("rounds", std::to_string(rounds));
    manifestRounds(out, throughputs, wall_throughputs);
    out.manifest("event_samples", std::to_string(event_ms.size()));
    out.manifest("sim_digest", hex(digest.value()));
    checkExpectedDigest(opt, digest.value(), out);
}

// ---------------------------------------------------------------------
// region_day / region_surge.

std::string
regionInvariant(const power::RegionSpec &spec, const sim::RegionResult &r)
{
    auto ticks = static_cast<uint64_t>(
        std::ceil(spec.duration.value() / spec.coordinationPeriod.value()));
    if (r.coordinationTicks != ticks || r.budgetAudits != ticks)
        return "coordination ticks or budget audits miscounted";
    if (static_cast<int>(r.msbs.size()) != spec.msbs)
        return "MSB outcome rows missing";
    for (const sim::RegionMsbOutcome &m : r.msbs) {
        if (m.breakerTripped)
            return "MSB breaker tripped under priority-aware charging";
        if (m.racksByPriority[0] + m.racksByPriority[1]
                + m.racksByPriority[2]
            != spec.racksPerMsb)
            return "rack priority counts do not cover the MSB";
    }
    return {};
}

void
runRegionWorkload(const RunOptions &opt, util::ThreadPool &pool,
                  RunReport &report)
{
    Reporter out(report);
    const power::RegionSpec spec =
        regionSpec(opt.workload, opt.seed, opt.shrink);
    const double rack_hours = static_cast<double>(spec.msbs)
        * spec.racksPerMsb * spec.duration.value() / 3600.0;
    out.manifest("msbs", std::to_string(spec.msbs));
    out.manifest("racks_per_msb", std::to_string(spec.racksPerMsb));
    out.manifest("sim_hours",
                 util::strf("%.17g", spec.duration.value() / 3600.0));
    out.manifest("region_budget_mw",
                 util::strf("%.17g",
                            power::effectiveRegionBudget(spec).value()
                                / 1e6));
    sim::RegionRunOptions engine_options;
    engine_options.threads = kWorkerThreads;

    auto check = [&](const sim::RegionResult &r, uint64_t digest,
                     uint64_t reference) {
        ++report.attempted;
        std::string bad = regionInvariant(spec, r);
        if (bad.empty() && digest != reference)
            bad = "digest differs from the warm-up run";
        if (!bad.empty()) {
            ++report.failed;
            out.fail(bad);
        }
        return bad.empty();
    };

    if (opt.traced) {
        TracedTotals t;
        t.lanes = pool.size() + 1;
        // Untimed warm-up run, the digest reference.
        const uint64_t first_digest =
            regionDigest(sim::runRegion(spec, engine_options));
        int64_t budget_start = nowNs();
        while (roomForAnother(secondsSince(budget_start), t.rounds,
                              opt.seconds, 1)) {
            double cpu_start = processCpuS();
            sim::RegionResult engine = sim::runRegion(spec, engine_options);
            t.engineCpuS += processCpuS() - cpu_start;
            uint64_t engine_digest = regionDigest(engine);
            check(engine, engine_digest, first_digest);

            CounterArray before = readCounters();
            setTracing(true);
            int64_t start = nowNs();
            cpu_start = processCpuS();
            sim::RegionResult traced = runRegionTraced(spec, pool);
            t.tracedWallS += secondsSince(start);
            t.tracedCpuS += processCpuS() - cpu_start;
            setTracing(false);
            CounterArray after = readCounters();
            for (size_t i = 0; i < kRegistryCounterCount; ++i)
                t.counters[i] += after[i] - before[i];
            if (regionDigest(traced) != engine_digest)
                t.digestsMatch = false;
            ++t.rounds;
        }
        t.ledger = collectLedger();
        t.generateS = static_cast<double>(
                          t.ledger.tally(Tally::TraceBuildNs))
            * 1e-9 / static_cast<double>(t.rounds);
        t.samplesGenerated =
            static_cast<double>(t.ledger.tally(Tally::TraceSamples))
            / static_cast<double>(t.rounds);
        double lookups =
            static_cast<double>(t.ledger.tally(Tally::TraceLookups));
        t.cacheHitRatio = ratio(
            lookups
                - static_cast<double>(
                    t.ledger.tally(Tally::TraceWindowsBuilt)),
            lookups);
        reportLayers(out, t);
        out.manifest("rounds", std::to_string(t.rounds));
        return;
    }

    // One untimed warm-up run, the reference every timed run must
    // reproduce and the source of the simulated metrics.
    const sim::RegionResult first = sim::runRegion(spec, engine_options);
    const uint64_t first_digest = regionDigest(first);
    check(first, first_digest, first_digest);

    // Set-up through the engine, timed only after the warm-up run.
    const power::RegionSpec setup_spec = firstPeriodSpec(spec);
    SetupTimer setup(
        [&] { sim::runRegion(setup_spec, engine_options); },
        kRegionSetupBatch);
    setup.runBatch();

    std::vector<double> run_ms;
    std::vector<double> throughputs;
    std::vector<double> wall_throughputs;
    double measured_s = 0.0;
    size_t rounds = 0;
    while (roomForAnother(measured_s, rounds, opt.seconds, 2)) {
        int64_t start = nowNs();
        double cpu_start = processCpuS();
        sim::RegionResult r = sim::runRegion(spec, engine_options);
        double cpu = processCpuS() - cpu_start;
        double wall = secondsSince(start);
        measured_s += wall;
        if (check(r, regionDigest(r), first_digest)) {
            run_ms.push_back(cpu * 1e3);
            throughputs.push_back(rack_hours / cpu);
            wall_throughputs.push_back(rack_hours / wall);
        }
        ++rounds;
        setup.runBatch();
    }
    double rss = peakRssMib();

    // The region has no reference data; the model's paper error is
    // measured on the Table III cells, untimed.
    Accuracy acc = tableIIIStandalone(pool);
    for (const std::string &p : acc.problems)
        out.fail(p);
    double sla_met = 0.0;
    for (const sim::RegionMsbOutcome &m : first.msbs)
        sla_met += m.slaMetTotal();

    reportSetup(out, setup);
    out.metric("sim_rack_hours_per_cpu_s", quantile(throughputs, 0.5),
               "rack-h/cpu-s");
    out.metric("event_cpu_ms_p50", quantile(run_ms, 0.5), "ms");
    out.metric("event_cpu_ms_p90", quantile(run_ms, 0.9), "ms");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("ops_ok_frac",
               1.0 - ratio(static_cast<double>(report.failed),
                           static_cast<double>(report.attempted)),
               "frac");
    out.metric("table3_cap_mae_kw", acc.maeKw, "kW");
    out.metric("sla_met_frac",
               ratio(sla_met, static_cast<double>(first.racksTotal())),
               "frac");
    out.metric("max_cap_kw",
               first.capMw.size() > 0 ? first.capMw.maxValue() * 1e3 : 0.0,
               "kW");
    out.manifest("it_demand_peak_mw",
                 util::strf("%.17g", first.demandItMw.size() > 0
                                         ? first.demandItMw.maxValue()
                                         : 0.0));
    out.manifest("rounds", std::to_string(rounds));
    manifestRounds(out, throughputs, wall_throughputs);
    out.manifest("event_samples", std::to_string(run_ms.size()));
    out.manifest("sim_digest", hex(first_digest));
    checkExpectedDigest(opt, first_digest, out);
}

} // namespace

std::string
jsonString(std::string_view text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

bool
knownWorkload(const std::string &name)
{
    return name == "paper_sweep" || name == "region_day"
        || name == "region_surge";
}

RunReport
runWorkload(const RunOptions &opt)
{
    RunReport report;
    Reporter out(report);
    out.manifest("workload", jsonString(opt.workload));
    out.manifest("seed", std::to_string(opt.seed));
    out.manifest("seconds", util::strf("%.17g", opt.seconds));
    out.manifest("traced", opt.traced ? "true" : "false");
    out.manifest("shrink", opt.shrink ? "true" : "false");
    out.manifest("build_type", jsonString(PERFBENCH_BUILD_TYPE));
    // perfbench/CMakeLists.txt always compiles with DCBATT_ENABLE_CHECKS=0.
    out.manifest("dcbatt_enable_checks", "false");
    out.manifest("simd_dispatch",
                 jsonString(battery::activeSimdMode() == battery::SimdMode::Avx2
                                ? "avx2"
                                : "scalar"));
    out.manifest("batch_charging",
                 battery::batchChargingEnabled() ? "true" : "false");
    out.manifest("hardware_threads",
                 std::to_string(util::ThreadPool::hardwareThreads()));
    out.manifest("worker_threads", std::to_string(kWorkerThreads));

    util::ThreadPool pool(kWorkerThreads);
    if (opt.workload == "paper_sweep")
        runPaperSweep(opt, pool, report);
    else
        runRegionWorkload(opt, pool, report);
    return report;
}

} // namespace perfbench

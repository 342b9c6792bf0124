#include "reliability/aor_simulator.h"

#include <algorithm>

#include "obs/crash_bundle.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dcbatt::reliability {

using util::Seconds;

namespace {

constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerYear = 8760.0 * 3600.0;
constexpr double kSecondsPerDay = 24.0 * 3600.0;

/** Expected loss-interval count of @p processes over @p horizon_s. */
size_t
expectedIntervals(const std::vector<FailureProcess> &processes,
                  double horizon_s)
{
    double expected = 0.0;
    for (const FailureProcess &proc : processes) {
        if (!(proc.mtbfHours > 0.0))
            continue;  // generation panics on these; keep the
                       // estimate finite regardless
        double per_event =
            proc.effect == FailureEffect::Outage ? 1.0 : 2.0;
        expected += per_event * horizon_s
            / (proc.mtbfHours * kSecondsPerHour);
    }
    return static_cast<size_t>(expected * 1.1) + 16;
}

/** Raw (unscaled) sums of one timeline walk. */
struct WalkSums
{
    double notFull = 0.0;
    double dark = 0.0;
    size_t events = 0;
};

/**
 * Walk one timeline over [0, horizon_s]: union of
 * [loss start, loss end + recharge] spans, where a loss that begins
 * during a recharge extends the span (the recharge restarts after the
 * new episode). Templated on the callable so the fixed-charge-time
 * path pays no per-interval std::function dispatch.
 */
template <typename ChargeTimeFn>
WalkSums
walkTimeline(const std::vector<LossInterval> &timeline, double horizon_s,
             const ChargeTimeFn &charge_time_fn)
{
    WalkSums sums;
    sums.events = timeline.size();
    double span_start = -1.0;
    double span_end = -1.0;
    for (const LossInterval &loss : timeline) {
        sums.dark +=
            std::min(loss.durationSeconds,
                     std::max(0.0, horizon_s - loss.startSeconds));
        double recharge = charge_time_fn(loss).value();
        double end = loss.endSeconds() + recharge;
        if (span_start < 0.0) {
            span_start = loss.startSeconds;
            span_end = end;
            continue;
        }
        if (loss.startSeconds <= span_end) {
            span_end = std::max(span_end, end);
        } else {
            sums.notFull += std::min(span_end, horizon_s) - span_start;
            span_start = loss.startSeconds;
            span_end = end;
        }
    }
    if (span_start >= 0.0)
        sums.notFull += std::min(span_end, horizon_s) - span_start;
    return sums;
}

/**
 * Walk every shard and reduce in shard order (shared by both public
 * entry points). The single-shard (legacy serial) case walks straight
 * into the result — no per-call partials vector, no pool round-trip —
 * which is also what keeps concurrent evaluations on one simulator
 * safe: all per-call state is on the caller's stack.
 */
template <typename ChargeTimeFn>
WalkSums
walkAllShards(const std::vector<std::vector<LossInterval>> &shards,
              double shard_horizon, util::ThreadPool *pool,
              const ChargeTimeFn &charge_time_fn)
{
    if (shards.size() == 1)
        return walkTimeline(shards.front(), shard_horizon,
                            charge_time_fn);

    std::vector<WalkSums> partial(shards.size());
    auto walk = [&](size_t s) {
        partial[s] =
            walkTimeline(shards[s], shard_horizon, charge_time_fn);
    };
    if (pool) {
        pool->parallelFor(shards.size(), walk);
    } else {
        for (size_t s = 0; s < shards.size(); ++s)
            walk(s);
    }

    WalkSums total;
    for (const WalkSums &sums : partial) {
        total.notFull += sums.notFull;
        total.dark += sums.dark;
        total.events += sums.events;
    }
    return total;
}

/** Scale raw walk sums into the per-year AorResult metrics. */
AorResult
finishResult(const WalkSums &total, const AorConfig &config)
{
    const double horizon = config.years * kSecondsPerYear;
    DCBATT_COUNT_N("reliability.loss_events_walked", total.events);
    AorResult result;
    // Each shard's loss-span union is clipped to its sub-horizon, so
    // the total not-fully-redundant time can never exceed the full
    // horizon.
    DCBATT_ASSERT(total.notFull >= 0.0 && total.notFull <= horizon,
                  "loss-span union %g s outside [0, %g] s",
                  total.notFull, horizon);
    result.aor = 1.0 - total.notFull / horizon;
    result.lossOfRedundancyHoursPerYear =
        total.notFull / kSecondsPerHour / config.years;
    result.lossEventsPerYear =
        static_cast<double>(total.events) / config.years;
    result.darkHoursPerYear =
        total.dark / kSecondsPerHour / config.years;
    return result;
}

} // namespace

AorSimulator::AorSimulator(std::vector<FailureProcess> processes,
                           AorConfig config, util::ThreadPool *pool)
    : config_(config), pool_(pool)
{
    DCBATT_REQUIRE(config_.years > 0.0, "nonpositive horizon %g",
                   config_.years);
    DCBATT_REQUIRE(config_.shards >= 1, "shard count %d < 1",
                   config_.shards);
    shards_.resize(static_cast<size_t>(config_.shards));
    if (obs::crashBundleArmed()) {
        // Identify the RNG substream scheme in any post-mortem: shard
        // s draws from Rng(seed).substream(s) (shards == 1 keeps the
        // legacy direct Rng(seed) stream).
        obs::setCrashContext(
            "reliability.aor_seed",
            util::strf("%llu", static_cast<unsigned long long>(
                                   config_.seed)));
        obs::setCrashContext("reliability.aor_shards",
                             util::strf("%d", config_.shards));
        obs::setCrashContext(
            "reliability.aor_substreams",
            config_.shards == 1
                ? "Rng(seed)"
                : util::strf("Rng(seed).substream(s), s in [0, %d)",
                             config_.shards));
        obs::setCrashContext("reliability.aor_years",
                             util::strf("%.6g", config_.years));
    }
    DCBATT_SPAN_NAMED(gen_span, "reliability.generate_timelines");
    gen_span.arg("shards", static_cast<double>(config_.shards));
    gen_span.arg("years", config_.years);
    // All shards cover the same sub-horizon, so the reserve estimate
    // is shared — computed once here, not once per shard.
    const size_t reserve_hint = expectedIntervals(
        processes, config_.years * kSecondsPerYear
                       / static_cast<double>(config_.shards));
    auto generate = [&](size_t shard) {
        generateShard(shard, processes, reserve_hint);
    };
    if (pool_ && config_.shards > 1) {
        pool_->parallelFor(shards_.size(), generate);
    } else {
        for (size_t s = 0; s < shards_.size(); ++s)
            generate(s);
    }
    DCBATT_COUNT_N("reliability.shards_generated", config_.shards);
}

const std::vector<LossInterval> &
AorSimulator::timeline() const
{
    DCBATT_REQUIRE(config_.shards == 1,
                   "timeline() is single-timeline only (shards = %d); "
                   "use shardTimeline()",
                   config_.shards);
    return shards_.front();
}

const std::vector<LossInterval> &
AorSimulator::shardTimeline(int shard) const
{
    DCBATT_REQUIRE(shard >= 0 && shard < config_.shards,
                   "shard %d outside [0, %d)", shard, config_.shards);
    return shards_[static_cast<size_t>(shard)];
}

void
AorSimulator::generateShard(size_t shard,
                            const std::vector<FailureProcess> &processes,
                            size_t reserve_hint)
{
    // Shard 0 of a single-timeline run uses the Rng(seed) stream
    // directly so the legacy serial history is preserved bit for bit;
    // sharded runs draw counter-based substreams, which are
    // independent of one another and of generation order (and hence of
    // thread count). SeededStream replays the exact Rng draw sequence
    // but shares each seed's engine warm-up through a cache, so the
    // per-(shard, process) stream setup that used to dominate sharded
    // generation is a table lookup here — sharding is free at one
    // shard and near-linear beyond.
    util::SeededStream rng(config_.shards == 1
                               ? config_.seed
                               : util::Rng::substreamSeed(config_.seed,
                                                          shard));
    const double horizon = config_.years * kSecondsPerYear
        / static_cast<double>(config_.shards);

    // Per-shard span: in a pooled build the shards land on different
    // tids, which is exactly what makes the trace's per-shard
    // years/sec lane readable in Perfetto.
    DCBATT_SPAN_NAMED(shard_span, "reliability.generateShard");
    shard_span.arg("shard", static_cast<double>(shard));
    shard_span.arg("years", horizon / kSecondsPerYear);

    std::vector<LossInterval> &timeline =
        shards_[shard];
    timeline.reserve(reserve_hint);

    for (const FailureProcess &proc : processes) {
        // Equivalent to Rng::fork(): the child seed is the parent's
        // next raw draw (pinned by SeededStream.NextRawMirrorsFork).
        util::SeededStream stream(rng.nextRaw());
        double mtbf_s = proc.mtbfHours * kSecondsPerHour;
        double mttr_s = proc.mttrHours * kSecondsPerHour;
        double t = 0.0;
        while (true) {
            double gap;
            if (proc.interval == IntervalModel::AnnualNormal) {
                gap = stream.truncatedNormal(
                    mtbf_s,
                    config_.annualSigmaDays * kSecondsPerDay,
                    kSecondsPerDay, 3.0 * mtbf_s);
            } else {
                gap = stream.exponential(mtbf_s);
            }
            t += gap;
            if (t >= horizon)
                break;
            double repair = stream.exponential(mttr_s);
            if (proc.effect == FailureEffect::Outage) {
                timeline.push_back({t, repair});
            } else {
                // Two open transitions: source drops, source returns.
                double ot1 = stream.exponential(
                    config_.meanOpenTransition.value());
                double ot2 = stream.exponential(
                    config_.meanOpenTransition.value());
                timeline.push_back({t, ot1});
                if (t + repair < horizon)
                    timeline.push_back({t + repair, ot2});
            }
        }
    }
    std::sort(timeline.begin(), timeline.end(),
              [](const LossInterval &a, const LossInterval &b) {
                  return a.startSeconds < b.startSeconds;
              });
    // One shard-sized increment (not one per draw); worker-thread
    // increments land in that thread's shard and merge exactly.
    DCBATT_COUNT_N("reliability.loss_intervals_generated",
                   timeline.size());
    shard_span.arg("intervals", static_cast<double>(timeline.size()));
    // With checks off the assert expands to nothing and `loss` is
    // unused.
    for ([[maybe_unused]] const LossInterval &loss : timeline) {
        DCBATT_ASSERT(loss.startSeconds >= 0.0
                          && loss.durationSeconds >= 0.0,
                      "malformed loss interval at %g s (duration %g s)",
                      loss.startSeconds, loss.durationSeconds);
    }
}

AorResult
AorSimulator::aorForChargeTime(Seconds charge_time) const
{
    DCBATT_COUNT("reliability.aor_evaluations");
    DCBATT_SPAN("reliability.aor_eval");
    // Inline lambda (not routed through aorForChargeModel) so the
    // per-interval recharge lookup is a constant load, not a
    // type-erased call — this is the Fig. 9a sweep's inner loop.
    return finishResult(
        walkAllShards(shards_,
                      config_.years * kSecondsPerYear
                          / static_cast<double>(config_.shards),
                      pool_,
                      [charge_time](const LossInterval &) {
                          return charge_time;
                      }),
        config_);
}

AorResult
AorSimulator::aorForChargeModel(
    const std::function<Seconds(const LossInterval &)> &charge_time_fn)
    const
{
    DCBATT_COUNT("reliability.aor_evaluations");
    DCBATT_SPAN("reliability.aor_eval");
    return finishResult(
        walkAllShards(shards_,
                      config_.years * kSecondsPerYear
                          / static_cast<double>(config_.shards),
                      pool_, charge_time_fn),
        config_);
}

} // namespace dcbatt::reliability

#include "trace/trace_row_kernel.h"

#include <cmath>

#include "power/priority.h"
#include "trace/trace_row_kernel_internal.h"
#include "util/logging.h"

namespace dcbatt::trace {

using power::Priority;

namespace {

using internal::kDay;
using internal::kTwoPi;

/** Weekly modulation: weekends run flatter/lower. */
double
weeklyScale(double t_s, double weekend_dip)
{
    int day_index = static_cast<int>(t_s / kDay) % 7;
    bool weekend = day_index >= 5;
    return weekend ? 1.0 - weekend_dip : 1.0;
}

/**
 * A profile the AR(1) model cannot run: rho outside [0, 1) makes
 * sqrt(1 - rho^2) NaN (or the process explode), a nonpositive sigma
 * breaks the normal draw's precondition, and a non-finite shape value
 * turns every sample of the rack into NaN.
 */
void
checkProfile(const RackProfile &prof, int priority_index)
{
    auto bad = [priority_index](const char *field, double value,
                                const char *want) {
        util::fatal(util::strf("trace profile P%d: %s %g %s",
                               priority_index + 1, field, value, want));
    };
    if (!(prof.noisePersistence >= 0.0 && prof.noisePersistence < 1.0))
        bad("noisePersistence", prof.noisePersistence,
            "outside [0, 1)");
    if (!(prof.noiseSigma > 0.0 && std::isfinite(prof.noiseSigma)))
        bad("noiseSigma", prof.noiseSigma, "must be positive and finite");
    if (!std::isfinite(prof.baseMean.value()))
        bad("baseMean", prof.baseMean.value(), "is not finite");
    if (!std::isfinite(prof.baseSpread.value()))
        bad("baseSpread", prof.baseSpread.value(), "is not finite");
    if (!std::isfinite(prof.diurnalAmplitude))
        bad("diurnalAmplitude", prof.diurnalAmplitude, "is not finite");
    if (!std::isfinite(prof.diurnalPhaseShift))
        bad("diurnalPhaseShift", prof.diurnalPhaseShift,
            "is not finite");
}

} // namespace

TraceRowKernel::TraceRowKernel(const TraceGenSpec &spec)
    : start_(spec.startTime.value()), step_(spec.step.value()),
      peak_(spec.peakTimeOfDay.value()), weekendDip_(spec.weekendDip),
      rackMin_(spec.rackMinPower.value()),
      rackMax_(spec.rackMaxPower.value()),
      aggregateMean_(spec.aggregateMean.value()),
      aggregateAmplitude_(spec.aggregateAmplitude.value()),
      aggregateSigma_(spec.aggregateMean.value()
                      * spec.aggregateNoiseFraction)
{
    if (spec.rackCount <= 0)
        util::fatal("trace spec: rack count must be positive");
    if (spec.step.value() <= 0.0 || spec.duration < spec.step)
        util::fatal("trace spec: bad step/duration");
    for (int p = 0; p < 3; ++p)
        checkProfile(spec.profiles[p], p);
}

std::vector<double>
TraceRowKernel::drawRackParameters(const TraceGenSpec &spec,
                                   util::Rng &rng)
{
    const auto racks = static_cast<size_t>(spec.rackCount);
    base_.resize(racks);
    amplitude_.resize(racks);
    phaseS_.resize(racks);
    rho_.resize(racks);
    innovationSigma_.resize(racks);
    normal_.resize(racks + 1);
    diurnal_.resize(racks);
    std::vector<double> ar(racks);
    for (size_t i = 0; i < racks; ++i) {
        Priority p = spec.priorities.empty()
            ? Priority::P2
            : spec.priorities[i % spec.priorities.size()];
        const RackProfile &prof = spec.profiles[power::priorityIndex(p)];
        base_[i] = prof.baseMean.value()
            + rng.uniform(-prof.baseSpread.value(),
                          prof.baseSpread.value());
        amplitude_[i] = prof.diurnalAmplitude * rng.uniform(0.7, 1.3);
        double phase_h = prof.diurnalPhaseShift + rng.uniform(-1.0, 1.0);
        phaseS_[i] = phase_h * 3600.0;
        double rho = prof.noisePersistence;
        rho_[i] = rho;
        innovationSigma_[i] = prof.noiseSigma * std::sqrt(1.0 - rho * rho);
        ar[i] = rng.normal(0.0, prof.noiseSigma);
    }
    return ar;
}

void
TraceRowKernel::synthesizeWithMode(std::size_t sample,
                                   util::StandardNormalStream &noise,
                                   double *ar, double *row,
                                   util::SimdMode mode)
{
    const size_t racks = base_.size();

    // 1. The row's draws in stream order: racks, then the aggregate.
    // A normal(0, sd) draw is z * sd + 0.0 for the standard draw z.
    double *normal = normal_.data();
    noise.draw(normal, racks + 1);

    // 2-3. Diurnal shape: cosine peaking at the configured time of
    // day, shifted per rack.
    const double t = start_ + static_cast<double>(sample) * step_;
    const double weekly = weeklyScale(t, weekendDip_);
    const double from_peak = t - peak_;
    util::runLanes(mode, 0, [&]<int W>(size_t i) {
        return diurnalArgs<W>(i, from_peak);
    });
    for (double &d : diurnal_)
        d = std::cos(d);

    // 4. AR(1) noise, shape and the rack envelope.
    util::runLanes(mode, 0, [&]<int W>(size_t i) {
        return shapeRow<W>(i, weekly, ar, row);
    });

    // 5. The raw column total, summed in rack order.
    double raw_sum = 0.0;
    for (size_t i = 0; i < racks; ++i)
        raw_sum += row[i];

    // 6. Calibrate the column so the aggregate tracks the target
    // diurnal band exactly (preserves rack-to-rack ratios).
    double target = aggregateMean_
        + aggregateAmplitude_ * weekly
            * std::cos(kTwoPi * (from_peak - 0.0) / kDay)
        + (normal[racks] * aggregateSigma_ + 0.0);
    double scale = raw_sum > 0.0 ? target / raw_sum : 1.0;
    util::runLanes(mode, 0, [&]<int W>(size_t i) {
        return calibrateRow<W>(i, scale, row);
    });
}

} // namespace dcbatt::trace

#include "power/region_spec.h"

#include <cmath>

#include "sim/sim_time.h"
#include "util/logging.h"

namespace dcbatt::power {

int
suiteCount(const RegionSpec &spec)
{
    return spec.buildings * spec.suitesPerBuilding;
}

int
msbsPerSuite(const RegionSpec &spec)
{
    int suites = suiteCount(spec);
    return (spec.msbs + suites - 1) / suites;
}

int
suiteOfMsb(const RegionSpec &spec, int msb)
{
    return msb / msbsPerSuite(spec);
}

int
buildingOfMsb(const RegionSpec &spec, int msb)
{
    return suiteOfMsb(spec, msb) / spec.suitesPerBuilding;
}

std::string
msbName(const RegionSpec &spec, int msb)
{
    return util::strf("%s/b%d/s%d/msb%03d", spec.name.c_str(),
                      buildingOfMsb(spec, msb), suiteOfMsb(spec, msb),
                      msb);
}

util::Watts
effectiveRegionBudget(const RegionSpec &spec)
{
    return spec.regionBudget.value_or(
        spec.msbLimit * (0.85 * static_cast<double>(spec.msbs)));
}

std::vector<Priority>
msbPriorityMix(const RegionSpec &spec)
{
    int p1 = spec.p1RacksPerMsb >= 0 ? spec.p1RacksPerMsb
                                     : spec.racksPerMsb / 4;
    int p3 = spec.p3RacksPerMsb >= 0 ? spec.p3RacksPerMsb
                                     : spec.racksPerMsb / 4;
    int p2 = spec.racksPerMsb - p1 - p3;
    if (p1 < 0 || p3 < 0 || p2 < 0) {
        util::fatal(util::strf(
            "RegionSpec: priority mix %d+%d exceeds %d racks per MSB",
            p1, p3, spec.racksPerMsb));
    }
    return makePriorityMix(p1, p2, p3);
}

TopologySpec
msbTopologySpec(const RegionSpec &spec, int msb)
{
    TopologySpec topo;
    topo.rootKind = NodeKind::Msb;
    topo.rootName = msbName(spec, msb);
    topo.sbsPerMsb = spec.sbsPerMsb;
    topo.racksPerRpp = spec.racksPerRpp;
    int racks_per_sb =
        (spec.racksPerMsb + spec.sbsPerMsb - 1) / spec.sbsPerMsb;
    topo.rppsPerSb =
        (racks_per_sb + spec.racksPerRpp - 1) / spec.racksPerRpp;
    topo.totalRacks = spec.racksPerMsb;
    topo.msbLimit = spec.msbLimit;
    // As in the paper's single-MSB experiments, intra-MSB levels are
    // unconstrained; the binding limits are the MSB breaker and the
    // suite/building/region budgets the splitter enforces from above.
    topo.sbLimit = util::megawatts(50.0);
    topo.rppLimit = util::megawatts(50.0);
    topo.priorities = msbPriorityMix(spec);
    topo.bbuParams = spec.bbuParams;
    return topo;
}

util::Seconds
msbOutageStart(const RegionSpec &spec, int msb)
{
    return spec.firstOutage
        + spec.outageStagger * static_cast<double>(msb);
}

util::Seconds
msbOutageLength(const RegionSpec &spec)
{
    return openTransitionLength(
        spec.bbuParams, spec.targetMeanDod,
        spec.msbAggregateMean / static_cast<double>(spec.racksPerMsb),
        spec.openTransitionLength);
}

namespace {

/** Fatal unless @p q is positive: finite, or +inf when @p inf_ok. */
template <typename Tag>
void
requirePositive(const char *field, util::Quantity<Tag> q,
                bool inf_ok = false)
{
    const double v = q.value();
    if (!(v > 0.0) || (std::isinf(v) && !inf_ok)) {
        util::fatal(util::strf("RegionSpec: %s must be positive, got %g",
                               field, v));
    }
}

/** Fatal unless the count @p n is at least one. */
void
requireAtLeastOne(const char *field, int n)
{
    if (n < 1) {
        util::fatal(util::strf(
            "RegionSpec: %s must be at least 1, got %d", field, n));
    }
}

/** Fatal when @p v is NaN. */
void
requireNumber(const char *field, double v)
{
    if (std::isnan(v))
        util::fatal(util::strf("RegionSpec: %s is NaN", field));
}

/** Fatal when positive @p step rounds to less than one tick. */
void
requireWholeTick(const char *field, util::Seconds step)
{
    if (sim::toTicks(step) < 1) {
        util::fatal(util::strf(
            "RegionSpec: %s %g s is below the 1 us tick", field,
            step.value()));
    }
}

} // namespace

void
validateRegionSpec(const RegionSpec &spec)
{
    requireAtLeastOne("buildings", spec.buildings);
    requireAtLeastOne("suitesPerBuilding", spec.suitesPerBuilding);
    requireAtLeastOne("msbs", spec.msbs);
    requireAtLeastOne("racksPerMsb", spec.racksPerMsb);
    requireAtLeastOne("sbsPerMsb", spec.sbsPerMsb);
    requireAtLeastOne("racksPerRpp", spec.racksPerRpp);
    // Every comparison below is false for a NaN, so NaNs go first.
    requireNumber("physicsStep", spec.physicsStep.value());
    requireNumber("traceStep", spec.traceStep.value());
    requireNumber("coordinationPeriod", spec.coordinationPeriod.value());
    requireNumber("duration", spec.duration.value());
    requireNumber("targetMeanDod", spec.targetMeanDod);
    requireNumber("firstOutage", spec.firstOutage.value());
    requireNumber("outageStagger", spec.outageStagger.value());
    if (spec.physicsStep.value() <= 0.0
        || spec.traceStep.value() <= 0.0)
        util::fatal("RegionSpec: nonpositive step");
    // The event queue's periodic tasks run on a 1 us tick.
    requireWholeTick("physicsStep", spec.physicsStep);
    requireWholeTick("traceStep", spec.traceStep);
    if (spec.coordinationPeriod.value() < spec.physicsStep.value())
        util::fatal(
            "RegionSpec: coordination period below physics step");
    if (spec.duration < spec.coordinationPeriod)
        util::fatal("RegionSpec: duration below coordination period");
    if (spec.targetMeanDod <= 0.0 || spec.targetMeanDod > 1.0)
        util::fatal("RegionSpec: target mean DOD outside (0, 1]");
    if (spec.windowSamples == 0 || spec.maxResidentWindows == 0)
        util::fatal("RegionSpec: streaming window knobs must be >= 1");
    if (spec.firstOutage.value() < 0.0
        || spec.outageStagger.value() < 0.0)
        util::fatal("RegionSpec: negative outage schedule");
    requirePositive("msbLimit", spec.msbLimit);
    if (spec.auditInterval) {
        requirePositive("auditInterval", *spec.auditInterval);
        requireWholeTick("auditInterval", *spec.auditInterval);
    }
    if (spec.regionBudget)
        requirePositive("regionBudget", *spec.regionBudget);
    requirePositive("suiteLimit", spec.suiteLimit, true);
    requirePositive("buildingLimit", spec.buildingLimit, true);
    requirePositive("msbAggregateMean", spec.msbAggregateMean);
    if (spec.openTransitionLength) {
        requirePositive("openTransitionLength",
                        *spec.openTransitionLength);
    }
    (void)msbPriorityMix(spec);  // validates the mix counts
    // The stagger is non-negative, so the last MSB charges last.
    const int last = spec.msbs - 1;
    const util::Seconds ot_start = msbOutageStart(spec, last);
    const util::Seconds charge_start = ot_start + msbOutageLength(spec);
    if (charge_start >= spec.duration) {
        util::fatal(util::strf(
            "RegionSpec: MSB %d open transition [%.0f, %.0f]s ends "
            "outside the %.0f s run",
            last, ot_start.value(), charge_start.value(),
            spec.duration.value()));
    }
}

} // namespace dcbatt::power

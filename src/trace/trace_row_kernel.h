/**
 * @file
 * The per-sample row kernel shared by both trace synthesizers.
 *
 * generateTraces() (one sequential stream over the whole trace) and
 * StreamingTraceSource (one substream per window) differ only in
 * where their engine comes from and how they page. The load model of
 * one sample row is this kernel: AR(1) noise, diurnal shape and the
 * rack envelope, then the aggregate calibration.
 *
 * The kernel must stay byte-identical to the plain per-rack loop,
 * which draws a fresh std::normal_distribution per rack and evaluates
 * the whole model rack by rack (kept as the reference in
 * tests/trace_test.cc). It splits that work into passes, none of
 * which can move a bit:
 *  1. every normal draw of the row, in the loop's stream order (racks,
 *     then the aggregate), from a util::StandardNormalStream, which
 *     yields exactly the fresh-std::normal_distribution draws;
 *  2. the diurnal cosine arguments, plain IEEE arithmetic;
 *  3. one libm std::cos per rack (the transcendental stays scalar:
 *     vector math libraries do not round like libm);
 *  4. AR update, shape and clamp, plain arithmetic again;
 *  5. the raw column sum, strictly in rack order;
 *  6. calibration and the final clamp.
 * Pass 1 is the only one that touches the engine, so the libm calls of
 * pass 3 no longer sit between dependent engine draws. The per-rack
 * constants the loop recomputed per sample, sigma * sqrt(1 - rho^2)
 * and the phase shift in seconds, are computed once with the same
 * expressions, so they are the same doubles.
 *
 * Passes 2, 4 and 6, like the engine and the non-libm passes of the
 * normal stream, are lane passes (trace_row_kernel_internal.h,
 * util/lanes.h): four racks per vector under util::SimdMode::Avx2, one
 * at a time otherwise, with the same bits (trace_test pins it).
 */

#ifndef DCBATT_TRACE_TRACE_ROW_KERNEL_H_
#define DCBATT_TRACE_TRACE_ROW_KERNEL_H_

#include <cstddef>
#include <vector>

#include "trace/trace_generator.h"
#include "util/random.h"

namespace dcbatt::trace {

/** Row synthesizer for one fleet (see file comment). */
class TraceRowKernel
{
  public:
    /**
     * Check @p spec (util::fatal on a bad rack count, step, duration
     * or load profile) and take its fleet-wide constants.
     */
    explicit TraceRowKernel(const TraceGenSpec &spec);

    /**
     * Draw the per-rack static parameters of @p spec from @p rng, in
     * the order both synthesizers always used, and return each rack's
     * initial AR(1) state.
     */
    std::vector<double> drawRackParameters(const TraceGenSpec &spec,
                                           util::Rng &rng);

    /**
     * Synthesize absolute sample @p sample into @p row (one value per
     * rack), advancing the per-rack AR(1) state @p ar and the noise
     * stream, under the resolved DCBATT_SIMD mode.
     */
    void
    synthesize(std::size_t sample, util::StandardNormalStream &noise,
               double *ar, double *row)
    {
        synthesizeWithMode(sample, noise, ar, row,
                           util::activeSimdMode());
    }

    /** Synthesize with an explicit mode (the parity test's hook). */
    void synthesizeWithMode(std::size_t sample,
                            util::StandardNormalStream &noise, double *ar,
                            double *row, util::SimdMode mode);

  private:
    /** Passes 2, 4 and 6 from rack @p i (see util::runLanes). */
    template <int W>
    std::size_t diurnalArgs(std::size_t i, double from_peak);
    template <int W>
    std::size_t shapeRow(std::size_t i, double weekly, double *ar,
                         double *row) const;
    template <int W>
    std::size_t calibrateRow(std::size_t i, double scale,
                             double *row) const;

    // Fleet-wide constants, copied from the spec.
    double start_;
    double step_;
    double peak_;
    double weekendDip_;
    double rackMin_;
    double rackMax_;
    double aggregateMean_;
    double aggregateAmplitude_;
    double aggregateSigma_;

    // Per-rack static parameters (struct of arrays).
    std::vector<double> base_;
    std::vector<double> amplitude_;
    /** Diurnal phase shift in seconds (hours * 3600). */
    std::vector<double> phaseS_;
    std::vector<double> rho_;
    /** AR(1) innovation sigma: noiseSigma * sqrt(1 - rho^2). */
    std::vector<double> innovationSigma_;

    // Per-row scratch, reused across calls.
    /** Standard normals: one per rack, then the aggregate's. */
    std::vector<double> normal_;
    std::vector<double> diurnal_;
};

} // namespace dcbatt::trace

#endif // DCBATT_TRACE_TRACE_ROW_KERNEL_H_

/**
 * @file
 * Internal seam between the trace row kernel's dispatch and its AVX2
 * translation unit (trace_row_kernel_avx2.cc, compiled with -mavx2
 * -ffp-contract=off; see src/CMakeLists.txt). Nothing outside
 * src/trace includes this.
 *
 * Each body handles the leading multiple of four racks and returns
 * how many it handled; the scalar passes of trace_row_kernel.cc
 * finish the tail. Every vector operation is the scalar expression's
 * operation in the same operand order, and std::clamp is its
 * compare-and-blend, so the results are bit-identical.
 */

#ifndef DCBATT_TRACE_TRACE_ROW_KERNEL_INTERNAL_H_
#define DCBATT_TRACE_TRACE_ROW_KERNEL_INTERNAL_H_

#include <cstddef>

namespace dcbatt::trace::internal {

/** Pass 2: diurnal[i] = kTwoPi * (from_peak - phase_s[i]) / kDay. */
std::size_t diurnalArgsAvx2(double from_peak, const double *phase_s,
                            std::size_t n, double *diurnal);

/** The per-rack columns and row constants of pass 4. */
struct ShapeArgs
{
    const double *normal;
    const double *sigma;
    const double *rho;
    const double *amplitude;
    const double *diurnal;
    const double *base;
    double weekly;
    double rackMin;
    double rackMax;
};

/** Pass 4: AR(1) update, shape and the rack-envelope clamp. */
std::size_t shapeRowAvx2(const ShapeArgs &a, std::size_t n, double *ar,
                         double *row);

/** Pass 6: row[i] = clamp(row[i] * scale, rack_min, rack_max). */
std::size_t calibrateRowAvx2(double scale, double rack_min,
                             double rack_max, std::size_t n,
                             double *row);

} // namespace dcbatt::trace::internal

#endif // DCBATT_TRACE_TRACE_ROW_KERNEL_INTERNAL_H_

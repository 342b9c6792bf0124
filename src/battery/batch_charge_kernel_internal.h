/**
 * @file
 * Internal seam between the batch charge kernel's dispatch and its
 * AVX2 translation unit (compiled with -mavx2 -ffp-contract=off; see
 * src/battery/CMakeLists.txt). Nothing outside src/battery includes
 * this.
 */

#ifndef DCBATT_BATTERY_BATCH_CHARGE_KERNEL_INTERNAL_H_
#define DCBATT_BATTERY_BATCH_CHARGE_KERNEL_INTERNAL_H_

#include <cstddef>

namespace dcbatt::battery::internal {

/** The kernel's derived constants, passed by value to the AVX2 TU. */
struct BatchChargeConsts
{
    double refillC;
    double effic;
    double emptyV;
    double cvV;
    double tauS;
    double ocvSocSpan;
    double ocvVoltSpan;
};

/**
 * Vector bodies of the CC / CV lane updates, in place over the lane
 * columns. Each processes the leading multiple-of-4 lanes and returns
 * how many it handled; the caller finishes the tail (and, for CV, the
 * per-lane transcendental part) with the scalar code. Expressions
 * mirror the scalar lanes operation for operation — no FMA — so
 * results are bit-identical.
 */
std::size_t ccLanesAvx2(const BatchChargeConsts &c, double dt,
                        std::size_t n, double *dod,
                        const double *setpoint, double *input_w);
std::size_t cvLanesAvx2(const BatchChargeConsts &c, double dt,
                        double factor, std::size_t n, double *dod,
                        const double *current, double *elapsed);

} // namespace dcbatt::battery::internal

#endif // DCBATT_BATTERY_BATCH_CHARGE_KERNEL_INTERNAL_H_

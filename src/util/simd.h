/**
 * @file
 * The one SIMD dispatch switch shared by every vector kernel: the
 * battery CC-CV lanes, the MT19937-64 engine and normal stream, and
 * the trace row kernel.
 *
 * Each kernel pass is written once, as a template over a lane width
 * (util/lanes.h), run at four lanes per AVX2 vector or at one. Both
 * widths evaluate the same expressions in the same operand order, so
 * the two modes are bit-identical; the mode switches speed, never
 * bytes. A new vector pass is a Lanes<W> template, never an intrinsic
 * body.
 *
 * Runtime switch (read once from the environment):
 *  - DCBATT_SIMD=off|scalar force one lane;
 *  - DCBATT_SIMD=avx2       require AVX2 (one lane, with a warning, if
 *                           the CPU lacks it);
 *  - DCBATT_SIMD=auto       (default, also when unset or empty) AVX2
 *                           when the CPU supports it.
 * Any other value is fatal.
 */

#ifndef DCBATT_UTIL_SIMD_H_
#define DCBATT_UTIL_SIMD_H_

namespace dcbatt::util {

/** Which instruction set the vector kernels run on. */
enum class SimdMode
{
    Scalar,
    Avx2,
};

/** The resolved DCBATT_SIMD mode (env + CPU probe, cached). */
SimdMode activeSimdMode();

/**
 * The mode DCBATT_SIMD=@p value (null: unset) selects where AVX2 code
 * can run (@p avx2_usable) or not; util::fatal on any other value.
 */
SimdMode simdModeFor(const char *value, bool avx2_usable);

/** Whether this CPU executes AVX2 (false off x86-64). */
bool cpuHasAvx2();

} // namespace dcbatt::util

#endif // DCBATT_UTIL_SIMD_H_

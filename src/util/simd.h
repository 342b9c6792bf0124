/**
 * @file
 * The one SIMD dispatch switch shared by every vector kernel: the
 * battery CC-CV lanes, the MT19937-64 engine and normal stream, and
 * the trace row kernel.
 *
 * Each kernel keeps its AVX2 bodies in its own `*_avx2.cc`
 * translation unit, compiled with `-mavx2 -ffp-contract=off`
 * (dcbatt_avx2_sources() in the top-level CMakeLists.txt), and its
 * scalar code as the fallback. Every vector operation mirrors one
 * scalar operation in the same operand order, so the two modes are
 * bit-identical; the mode switches speed, never bytes.
 *
 * Runtime switch (read once from the environment):
 *  - DCBATT_SIMD=off|scalar force the scalar code;
 *  - DCBATT_SIMD=avx2       require AVX2 (scalar fallback with a
 *                           warning if the CPU or build lacks it);
 *  - DCBATT_SIMD=auto       (default) AVX2 when the CPU supports it.
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

/** Whether this CPU executes AVX2 (false off x86-64). */
bool cpuHasAvx2();

} // namespace dcbatt::util

#endif // DCBATT_UTIL_SIMD_H_

/**
 * @file
 * Lane types for the vector kernels (DESIGN.md §14). A kernel pass is
 * one template over a lane width W, written against Lanes<W>::D and
 * Lanes<W>::U: double and uint64_t at W = 1, GCC vector_size(32) types
 * at W = 4, which only the -mavx2 `*_avx2.cc` units instantiate. Both
 * take the same operators, so each lane evaluates the same expression;
 * Lanes<W> adds what operators cannot express. A new vector pass is a
 * Lanes<W> template, never an intrinsic body.
 */

#ifndef DCBATT_UTIL_LANES_H_
#define DCBATT_UTIL_LANES_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/simd.h"

namespace dcbatt::util {

template <int W>
struct Lanes;

template <>
struct Lanes<1>
{
    using D = double;
    using U = uint64_t;

    template <typename T>
    static T load(const T *p) { return *p; }
    template <typename T>
    static void store(T *p, T v) { *p = v; }
    static D splat(double x) { return x; }
    static D sqrt(D v) { return std::sqrt(v); }
    static unsigned movemask(bool m) { return m ? 1U : 0U; }
    static D compress(D v, unsigned) { return v; }
    static void
    deinterleave(U a, U b, U &x, U &y)
    {
        x = a;
        y = b;
    }
};

#ifdef __AVX2__
template <>
struct Lanes<4>
{
    typedef double D __attribute__((vector_size(32)));
    typedef uint64_t U __attribute__((vector_size(32)));
    typedef int I __attribute__((vector_size(32)));

    /** The vector of T at unaligned @p p. */
    template <typename T>
    static auto
    load(const T *p)
    {
        typedef T V __attribute__((vector_size(32)));
        V v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }
    template <typename V>
    static void store(void *p, V v) { std::memcpy(p, &v, sizeof v); }
    static D splat(double x) { return D{x, x, x, x}; }
    static D sqrt(D v) { return __builtin_ia32_sqrtpd256(v); }
    /** Bit k set when lane k of the compare result @p m holds. */
    static unsigned
    movemask(decltype(D{} < D{}) m)
    {
        return static_cast<unsigned>(
            __builtin_ia32_movmskpd256(std::bit_cast<D>(m)));
    }

    /**
     * The lanes of @p v whose @p mask bit is set, moved to the front in
     * lane order by one vpermd; the lanes after them are unspecified.
     */
    static D
    compress(D v, unsigned mask)
    {
        struct Table
        {
            int index[16][8];
        };
        static constexpr Table kTable = [] {
            Table t{};
            for (int m = 0; m < 16; ++m) {
                for (int lane = 0, out = 0; lane < 4; ++lane) {
                    if ((m >> lane) & 1) {
                        t.index[m][out++] = 2 * lane;
                        t.index[m][out++] = 2 * lane + 1;
                    }
                }
            }
            return t;
        }();
        return std::bit_cast<D>(__builtin_ia32_permvarsi256(
            std::bit_cast<I>(v), load(kTable.index[mask])));
    }

    /** Word pairs (x0 y0 x1 y1) (x2 y2 x3 y3) to x0..x3 and y0..y3. */
    static void
    deinterleave(U a, U b, U &x, U &y)
    {
        x = __builtin_shufflevector(a, b, 0, 2, 4, 6);
        y = __builtin_shufflevector(a, b, 1, 3, 5, 7);
    }
};
#endif

/** std::max per lane: (a < b) ? b : a. */
template <typename V>
V
laneMax(V a, V b)
{
    return a < b ? b : a;
}

/** std::clamp per lane (lo <= hi), -0.0, ties and NaN included. */
template <typename V>
V
laneClamp(V v, V lo, V hi)
{
    const V m = v < lo ? lo : v;
    return hi < m ? hi : m;
}

/**
 * Run `[&]<int W>(std::size_t i) { return pass<W>(..., i); }`, which
 * returns where its last whole step of W lanes ended, from @p begin:
 * at W = 4 under SimdMode::Avx2 when the calling target has the AVX2
 * unit, then at W = 1 over the tail.
 */
template <typename Pass>
std::size_t
runLanes(SimdMode mode, std::size_t begin, Pass &&pass)
{
#ifdef DCBATT_HAVE_AVX2_TU
    if (mode == SimdMode::Avx2)
        begin = pass.template operator()<4>(begin);
#else
    (void)mode;
#endif
    return pass.template operator()<1>(begin);
}

} // namespace dcbatt::util

#endif // DCBATT_UTIL_LANES_H_

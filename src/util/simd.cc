#include "util/simd.h"

#include <cstdlib>
#include <string_view>

#include "util/logging.h"

namespace dcbatt::util {

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

SimdMode
activeSimdMode()
{
    static const SimdMode mode = [] {
        const char *env = std::getenv("DCBATT_SIMD");
        std::string_view v = env != nullptr ? env : "auto";
        if (v == "off" || v == "scalar")
            return SimdMode::Scalar;
#ifdef DCBATT_HAVE_AVX2_TU
        bool has = cpuHasAvx2();
        if (v == "avx2" && !has) {
            warn("DCBATT_SIMD=avx2 requested but this CPU lacks AVX2; "
                 "using scalar code");
            return SimdMode::Scalar;
        }
        if (v != "auto" && v != "avx2")
            warn("unknown DCBATT_SIMD value; using auto");
        return has ? SimdMode::Avx2 : SimdMode::Scalar;
#else
        if (v == "avx2")
            warn("DCBATT_SIMD=avx2 requested but this build has no "
                 "AVX2 code; using scalar");
        return SimdMode::Scalar;
#endif
    }();
    return mode;
}

} // namespace dcbatt::util

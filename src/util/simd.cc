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
simdModeFor(const char *value, bool avx2_usable)
{
    const std::string_view v = value != nullptr ? value : "";
    if (v == "off" || v == "scalar")
        return SimdMode::Scalar;
    if (v == "avx2" && !avx2_usable) {
        warn("DCBATT_SIMD=avx2 requested but this CPU lacks AVX2; "
             "using scalar code");
    } else if (!v.empty() && v != "auto" && v != "avx2") {
        fatal(strf("DCBATT_SIMD=%s: expected one of off|scalar|avx2|auto",
                   value));
    }
    return avx2_usable ? SimdMode::Avx2 : SimdMode::Scalar;
}

SimdMode
activeSimdMode()
{
#ifdef DCBATT_HAVE_AVX2_TU
    constexpr bool kBuiltWithAvx2 = true;
#else
    constexpr bool kBuiltWithAvx2 = false;
#endif
    static const SimdMode mode = simdModeFor(
        std::getenv("DCBATT_SIMD"), kBuiltWithAvx2 && cpuHasAvx2());
    return mode;
}

} // namespace dcbatt::util

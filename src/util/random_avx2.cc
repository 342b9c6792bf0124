/**
 * @file
 * The W = 4 instances of random_internal.h's lane passes (-mavx2).
 */

#include "util/random_internal.h"

namespace dcbatt::util::internal {

template std::size_t mtTwistSpan<4>(uint64_t *, std::size_t, std::size_t,
                                    std::ptrdiff_t, uint64_t *);
template std::size_t polarAccept<4>(const uint64_t *, std::size_t,
                                    std::size_t, double *, double *,
                                    std::size_t *);
template std::size_t polarScale<4>(std::size_t, std::size_t,
                                   const double *, const double *,
                                   double *);

} // namespace dcbatt::util::internal

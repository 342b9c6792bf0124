/**
 * @file
 * The W = 4 instances of the trace row kernel's lane passes (-mavx2).
 */

#include "trace/trace_row_kernel_internal.h"

namespace dcbatt::trace {

template std::size_t TraceRowKernel::diurnalArgs<4>(std::size_t, double);
template std::size_t TraceRowKernel::shapeRow<4>(std::size_t, double,
                                                 double *, double *) const;
template std::size_t TraceRowKernel::calibrateRow<4>(std::size_t, double,
                                                     double *) const;

} // namespace dcbatt::trace

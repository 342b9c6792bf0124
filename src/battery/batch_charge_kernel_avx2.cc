/**
 * @file
 * The W = 4 instances of the batch CC-CV lane passes (-mavx2).
 */

#include "battery/batch_charge_kernel_internal.h"

namespace dcbatt::battery {

template std::size_t
BatchChargeKernel::ccLanes<4>(ChargeLaneColumns &, double, std::size_t) const;
template std::size_t
BatchChargeKernel::cvLanes<4>(ChargeLaneColumns &, double, double,
                              std::size_t) const;

} // namespace dcbatt::battery

// W=8 instantiation, compiled -mavx512f -mavx512dq -mavx512vl -mfma
// -ffp-contract=off (see src/spice/CMakeLists.txt). Same IEEE operation
// sequence as the scalar kernel in 512-bit lanes; dispatched only on CPUs
// reporting AVX-512 F/DQ/VL.
#include "spice/ekv_lanes.h"

#include "spice/ekv_lane_kernel.h"

namespace mcsm::spice {

void ekv_eval_lanes_w8(const EkvLanes& a, std::size_t n) {
    ekv_eval_lanes_impl<8>(a, n);
}

void cap_eval_lanes_w8(const CapLanes& a, std::size_t n) {
    cap_eval_lanes_impl<8>(a, n);
}

}  // namespace mcsm::spice

// W=4 instantiation, compiled -mavx2 -mfma -ffp-contract=off (see
// src/spice/CMakeLists.txt): the DVec lane loops collapse to 256-bit
// vmulpd/vaddpd/vdivpd/vsqrtpd, never contracted FMAs, so each lane stays
// bit-identical to the scalar kernel. Dispatched only on CPUs reporting
// AVX2+FMA.
#include "spice/ekv_lanes.h"

#include "spice/ekv_lane_kernel.h"

namespace mcsm::spice {

void ekv_eval_lanes_w4(const EkvLanes& a, std::size_t n) {
    ekv_eval_lanes_impl<4>(a, n);
}

void cap_eval_lanes_w4(const CapLanes& a, std::size_t n) {
    cap_eval_lanes_impl<4>(a, n);
}

}  // namespace mcsm::spice

// W=1 instantiation: the guaranteed scalar fallback and the scalar
// capacitance model itself (Mosfet::evaluate_caps runs cap_eval_lanes_w1),
// built with baseline flags (plus the project-wide -ffp-contract=off) in
// every configuration.
#include "spice/ekv_lanes.h"

#include "spice/ekv_lane_kernel.h"

namespace mcsm::spice {

void ekv_eval_lanes_w1(const EkvLanes& a, std::size_t n) {
    ekv_eval_lanes_impl<1>(a, n);
}

void cap_eval_lanes_w1(const CapLanes& a, std::size_t n) {
    cap_eval_lanes_impl<1>(a, n);
}

}  // namespace mcsm::spice

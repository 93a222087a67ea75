#include "spice/ekv_lanes.h"

#include <atomic>

#include "common/simd.h"

namespace mcsm::spice {

namespace {

struct Kernel {
    EkvLaneFn fn;
    CapLaneFn cap_fn;
    int width;
    const char* name;
};

Kernel kernel_for_width(int w) {
#ifdef MCSM_SIMD_AVX512
    if (w >= 8)
        return {&ekv_eval_lanes_w8, &cap_eval_lanes_w8, 8, "avx512x8"};
#endif
#ifdef MCSM_SIMD_AVX2
    if (w >= 4)
        return {&ekv_eval_lanes_w4, &cap_eval_lanes_w4, 4, "avx2x4"};
#endif
    (void)w;
    return {&ekv_eval_lanes_w1, &cap_eval_lanes_w1, 1, "scalar"};
}

// 0 = default dispatch; otherwise a pinned width from ekv_lane_force_width
// (tests/bench only).
std::atomic<int> g_forced{0};

// Default dispatch asks for the widest width (resolved once per process);
// a forced width goes through the same clamp, so only what the build and
// CPU can run is ever picked.
Kernel current_kernel() {
    static const int default_width =
        simd::pick_width(simd::cpu_caps(), simd::kMaxWidth);
    const int forced = g_forced.load(std::memory_order_relaxed);
    return kernel_for_width(
        forced > 0 ? simd::pick_width(simd::cpu_caps(), forced)
                   : default_width);
}

}  // namespace

EkvLaneFn ekv_lane_kernel() { return current_kernel().fn; }

CapLaneFn cap_lane_kernel() { return current_kernel().cap_fn; }

int ekv_lane_width() { return current_kernel().width; }

const char* ekv_lane_kernel_name() { return current_kernel().name; }

void ekv_lane_force_width(int w) {
    g_forced.store(w > 0 ? w : 0, std::memory_order_relaxed);
}

}  // namespace mcsm::spice

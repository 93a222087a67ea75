#include "common/simd.h"

namespace mcsm::simd {

const Caps& cpu_caps() {
    static const Caps caps = [] {
        Caps c;
#if defined(MCSM_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
        c.avx2_fma = __builtin_cpu_supports("avx2") != 0 &&
                     __builtin_cpu_supports("fma") != 0;
        c.avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                   __builtin_cpu_supports("avx512dq") != 0 &&
                   __builtin_cpu_supports("avx512vl") != 0;
#endif
        return c;
    }();
    return caps;
}

bool width_compiled(int w) {
    switch (w) {
        case 1:
            return true;
#ifdef MCSM_SIMD_AVX2
        case 4:
            return true;
#endif
#ifdef MCSM_SIMD_AVX512
        case 8:
            return true;
#endif
        default:
            return false;
    }
}

int pick_width(const Caps& caps, int cap) {
    if (cap >= 8 && caps.avx512 && width_compiled(8)) return 8;
    if (cap >= 4 && caps.avx2_fma && width_compiled(4)) return 4;
    return 1;
}

}  // namespace mcsm::simd

// Width-dispatched EKV lane kernel: the SIMD tier of the MOSFET batch.
//
// MosfetBatch's phase-split path gathers the active devices' terminal
// voltages (and, when delta-gating compacted the set, their coefficients)
// into the lane-contiguous SoA block described by EkvLanes, calls the
// dispatched kernel once over the whole padded block, and scatters the
// results from the output arrays into the pre-resolved CSR slots.
//
// The kernel itself (spice/ekv_lane_kernel.h) is one template over
// simd::DVec<W>, instantiated in three translation units:
//     W=1  baseline flags            (ekv_kernel_w1.cpp, always built)
//     W=4  -mavx2 -mfma              (ekv_kernel_w4.cpp)
//     W=8  -mavx512f/dq/vl -mfma     (ekv_kernel_w8.cpp)
// all with -ffp-contract=off, so every width executes the same IEEE
// operation sequence as the scalar fast path and results are bit-identical
// regardless of which kernel the CPU dispatch picks (test_ekv_batch
// asserts this). ekv_lane_kernel() runs the widest width this build and
// CPU support (simd::pick_width, see common/simd.h); there is no runtime
// override outside the ekv_lane_force_width test hook.
#ifndef MCSM_SPICE_EKV_LANES_H
#define MCSM_SPICE_EKV_LANES_H

#include <cstddef>

namespace mcsm::spice {

// SoA argument block for one lane sweep. All pointers address arrays of at
// least `n` doubles where `n` is a multiple of the kernel width; the caller
// pads the tail with benign lanes (v = 0, pol = 1, is = 0, n = 1, vt0 = 0,
// lambda = 0, ut = 0.025) so masked remainder lanes never read
// uninitialized parameters. `ia` receives the affine RHS term
// ids - (gm*vg + gds*vd + gms*vs + gmb*vb) computed in-lane so the
// stamping loop stays arithmetic-free.
struct EkvLanes {
    // Terminal voltages (gathered per call).
    const double* vd = nullptr;
    const double* vg = nullptr;
    const double* vs = nullptr;
    const double* vb = nullptr;
    // Channel coefficients (SoA mirror of EkvCoeffs).
    const double* pol = nullptr;
    const double* is = nullptr;
    const double* nn = nullptr;
    const double* vt0 = nullptr;
    const double* lambda = nullptr;
    const double* ut = nullptr;
    // Outputs.
    double* gm = nullptr;
    double* gds = nullptr;
    double* gms = nullptr;
    double* gmb = nullptr;
    double* ids = nullptr;
    double* ia = nullptr;
};

using EkvLaneFn = void (*)(const EkvLanes&, std::size_t n);

// The dispatched kernel, its lane width, and a human-readable name
// ("scalar", "avx2x4", "avx512x8") for logs/metrics. Stable for the life
// of the process unless ekv_lane_force_width re-pins it.
EkvLaneFn ekv_lane_kernel();
int ekv_lane_width();
const char* ekv_lane_kernel_name();

// Test/bench hook: pin the kernel to a specific width, clamped down by
// simd::pick_width to what this build and CPU support. 0 restores the
// default dispatch. Not for concurrent use with running solves.
void ekv_lane_force_width(int w);

// Per-width instantiations (defined in their per-target TUs). Prefer
// ekv_lane_kernel(); these exist for the dispatcher and width-pinned tests.
void ekv_eval_lanes_w1(const EkvLanes& a, std::size_t n);
#ifdef MCSM_SIMD_AVX2
void ekv_eval_lanes_w4(const EkvLanes& a, std::size_t n);
#endif
#ifdef MCSM_SIMD_AVX512
void ekv_eval_lanes_w8(const EkvLanes& a, std::size_t n);
#endif

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_EKV_LANES_H

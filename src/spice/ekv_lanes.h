// Width-dispatched MOSFET lane kernels: the SIMD tier of the MOSFET batch.
//
// MosfetBatch's phase-split paths gather the active devices' terminal
// voltages (and, when delta-gating compacted the set, their coefficients)
// into the lane-contiguous SoA blocks described by EkvLanes and CapLanes,
// call the dispatched kernel once over the whole padded block, and scatter
// the results: the EKV channel stamps into pre-resolved CSR slots every
// Newton iteration, the five bias-dependent capacitances into the per-step
// companion arrays once per transient step.
//
// Both kernels (spice/ekv_lane_kernel.h) are templates over
// simd::DVec<W>, instantiated in three translation units:
//     W=1  baseline flags            (ekv_kernel_w1.cpp, always built)
//     W=4  -mavx2 -mfma              (ekv_kernel_w4.cpp)
//     W=8  -mavx512f/dq/vl -mfma     (ekv_kernel_w8.cpp)
// all with -ffp-contract=off, so every width executes the same IEEE
// operation sequence as the scalar code and results are bit-identical
// regardless of which kernel the CPU dispatch picks (test_ekv_batch
// asserts this). The W=1 capacitance kernel *is* Mosfet::evaluate_caps.
// ekv_lane_kernel()/cap_lane_kernel() run the widest width this build and
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

// Capacitance coefficient planes of CapLanes::coef, one double per device
// each, derived from the MosParams card and the device geometry by
// Mosfet::cap_coeffs. A product is formed in the order the model's
// formula writes it (cox * w * l left to right), so reading it from a plane
// rounds exactly as computing it in place would.
enum CapCoeff : int {
    kCapPol,     // +1 NMOS, -1 PMOS
    kCapBlend,   // blend_v: region blending width
    kCapVt0,     // vt0
    kCapN,       // n (slope factor; sets the body effect)
    kCapCch,     // cox * w * l
    kCapCgsOv,   // cgso * w
    kCapCgdOv,   // cgdo * w
    kCapCgbFrac, // cgb_frac
    kCapCgbOv,   // cgbo * l
    kCapPb,      // junction built-in potential
    kCapFc,      // forward-bias linearization point (fraction of pb)
    kCapMj,      // area grading coefficient
    kCapMjsw,    // sidewall grading coefficient
    kCapCjD,     // cj * ad    (drain area, zero bias)
    kCapCjswD,   // cjsw * pd  (drain sidewall)
    kCapCjS,     // cj * as    (source area)
    kCapCjswS,   // cjsw * ps  (source sidewall)
    kCapCoeffs
};

// SoA argument block for one capacitance sweep. Voltage and output arrays
// hold at least `n` doubles (`n` a multiple of the kernel width); plane k
// of the coefficients starts at coef + k * stride. Pad lanes must carry
// finite voltages and coefficients; zero junction caps there keep the
// per-lane pow calls off them.
struct CapLanes {
    // Terminal voltages at the previous accepted solution.
    const double* vd = nullptr;
    const double* vg = nullptr;
    const double* vs = nullptr;
    const double* vb = nullptr;
    const double* coef = nullptr;
    std::size_t stride = 0;
    // Outputs (MosCaps order).
    double* cgs = nullptr;
    double* cgd = nullptr;
    double* cgb = nullptr;
    double* cdb = nullptr;
    double* csb = nullptr;
};

using CapLaneFn = void (*)(const CapLanes&, std::size_t n);

// The dispatched kernels, their lane width, and a human-readable name
// ("scalar", "avx2x4", "avx512x8") for logs/metrics. Stable for the life
// of the process unless ekv_lane_force_width re-pins it; both kernels
// always run at the same width.
EkvLaneFn ekv_lane_kernel();
CapLaneFn cap_lane_kernel();
int ekv_lane_width();
const char* ekv_lane_kernel_name();

// Test/bench hook: pin the kernel to a specific width, clamped down by
// simd::pick_width to what this build and CPU support. 0 restores the
// default dispatch. Not for concurrent use with running solves.
void ekv_lane_force_width(int w);

// Per-width instantiations (defined in their per-target TUs). Prefer the
// dispatched kernels; these exist for the dispatcher, the scalar
// Mosfet::evaluate_caps (W=1) and width-pinned tests.
void ekv_eval_lanes_w1(const EkvLanes& a, std::size_t n);
void cap_eval_lanes_w1(const CapLanes& a, std::size_t n);
#ifdef MCSM_SIMD_AVX2
void ekv_eval_lanes_w4(const EkvLanes& a, std::size_t n);
void cap_eval_lanes_w4(const CapLanes& a, std::size_t n);
#endif
#ifdef MCSM_SIMD_AVX512
void ekv_eval_lanes_w8(const EkvLanes& a, std::size_t n);
void cap_eval_lanes_w8(const CapLanes& a, std::size_t n);
#endif

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_EKV_LANES_H

// Four-terminal MOSFET with an EKV-style continuous I-V model, Meyer-style
// region-blended gate capacitances and bias-dependent junction capacitances.
//
// The EKV interpolation current
//     I = Is * [F(vp - vs) - F(vp - vd)] * (1 + lambda*|vds|),
//     F(v) = softplus(v / 2Ut)^2,  vp = (vg - VT0)/n   (bulk-referenced)
// is smooth from subthreshold to strong inversion and symmetric in
// drain/source, which matters here: the stack-effect experiments rely on the
// internal node of a series stack charging/discharging through a device
// whose source and drain roles swap, and on the body-affected |Vt| plateau
// (bulk-referencing gives VT_eff = VT0 + (n-1) * Vsb).
#ifndef MCSM_SPICE_MOSFET_H
#define MCSM_SPICE_MOSFET_H

#include <array>
#include <string>

#include "spice/device.h"
#include "spice/ekv.h"
#include "spice/ekv_lanes.h"
#include "spice/mos_params.h"

namespace mcsm::spice {

// Small-signal capacitances evaluated at a bias point.
struct MosCaps {
    double cgs = 0.0;
    double cgd = 0.0;
    double cgb = 0.0;
    double cdb = 0.0;
    double csb = 0.0;
};

// One device's capacitance coefficients, indexed by CapCoeff (the planes
// of a CapLanes block with stride 1).
using MosCapCoeffs = std::array<double, kCapCoeffs>;

class Mosfet : public Device {
public:
    // Geometry in meters. Junction areas/perimeters default from W and
    // params.ldiff; pass explicit values to override.
    Mosfet(std::string name, int d, int g, int s, int b,
           const MosParams& params, double w, double l, double ad = -1.0,
           double as = -1.0, double pd = -1.0, double ps = -1.0);

    int state_count() const override { return 5; }  // cgs, cgd, cgb, cdb, csb
    std::vector<int> terminals() const override { return {d_, g_, s_, b_}; }

    // The virtual stamp serves the pattern pass and the test/bench
    // oracles; solves stamp through MosfetBatch, which also commits the
    // five companion-cap currents of the state (no virtual commit here).
    void stamp(Stamper& st, const SimContext& ctx) const override;

    // Model evaluation at explicit terminal voltages (exposed for tests and
    // for the model-based capacitance shortcut in the characterizer).
    // evaluate_current is the scalar reference path: libm softplus/logistic
    // through the shared ekv_current kernel. evaluate_caps runs the W=1
    // capacitance lane kernel (spice/ekv_lane_kernel.h), so it is bit for
    // bit what MosfetBatch computes at every lane width.
    MosCurrent evaluate_current(double vd, double vg, double vs,
                                double vb) const;
    MosCaps evaluate_caps(double vd, double vg, double vs, double vb) const;

    // Channel coefficients for the batched SoA evaluator
    // (spice/device_batch). Derived on demand so the device keeps the
    // original read-params-at-evaluation semantics (the tech card must
    // outlive the device, not predate its construction).
    EkvCoeffs ekv_coeffs() const {
        return EkvCoeffs::from(*params_, w_, l_);
    }
    // Capacitance coefficients for the lane kernel, derived on demand for
    // the same reason.
    MosCapCoeffs cap_coeffs() const;

    double width() const { return w_; }
    double length() const { return l_; }
    const MosParams& params() const { return *params_; }

    int drain() const { return d_; }
    int gate() const { return g_; }
    int source() const { return s_; }
    int bulk() const { return b_; }

private:
    // Capacitances at the previous accepted solution for the virtual
    // stamp, cached per transient step (keyed on SimContext::step_id) so
    // every Newton iteration of a step shares one evaluation. A device
    // belongs to one circuit and circuits solve single-threaded, so the
    // mutable cache is safe.
    const MosCaps& caps_at_step(const SimContext& ctx) const;

    int d_;
    int g_;
    int s_;
    int b_;
    const MosParams* params_;  // non-owning; lives in the technology card
    double w_;
    double l_;
    double ad_;
    double as_;
    double pd_;
    double ps_;
    mutable long long caps_step_id_ = -1;
    mutable MosCaps caps_cache_;
};

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_MOSFET_H

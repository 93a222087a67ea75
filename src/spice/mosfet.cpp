#include "spice/mosfet.h"

#include "common/error.h"
#include "common/numeric.h"
#include "spice/cap_companion.h"

namespace mcsm::spice {

Mosfet::Mosfet(std::string name, int d, int g, int s, int b,
               const MosParams& params, double w, double l, double ad,
               double as, double pd, double ps)
    : Device(std::move(name)),
      d_(d),
      g_(g),
      s_(s),
      b_(b),
      params_(&params),
      w_(w),
      l_(l),
      ad_(ad >= 0.0 ? ad : w * params.ldiff),
      as_(as >= 0.0 ? as : w * params.ldiff),
      pd_(pd >= 0.0 ? pd : 2.0 * (w + params.ldiff)),
      ps_(ps >= 0.0 ? ps : 2.0 * (w + params.ldiff)) {
    require(w > 0.0 && l > 0.0, "Mosfet: W and L must be positive");
}

MosCurrent Mosfet::evaluate_current(double vd, double vg, double vs,
                                    double vb) const {
    return ekv_current(ekv_coeffs(), vd, vg, vs, vb,
                       mcsm::softplus_logistic_ref);
}

MosCapCoeffs Mosfet::cap_coeffs() const {
    const MosParams& p = *params_;
    MosCapCoeffs c{};
    c[kCapPol] = p.type == MosType::kNmos ? 1.0 : -1.0;
    c[kCapBlend] = p.blend_v;
    c[kCapVt0] = p.vt0;
    c[kCapN] = p.n;
    c[kCapCch] = p.cox * w_ * l_;
    c[kCapCgsOv] = p.cgso * w_;
    c[kCapCgdOv] = p.cgdo * w_;
    c[kCapCgbFrac] = p.cgb_frac;
    c[kCapCgbOv] = p.cgbo * l_;
    c[kCapPb] = p.pb;
    c[kCapFc] = p.fc;
    c[kCapMj] = p.mj;
    c[kCapMjsw] = p.mjsw;
    c[kCapCjD] = p.cj * ad_;
    c[kCapCjswD] = p.cjsw * pd_;
    c[kCapCjS] = p.cj * as_;
    c[kCapCjswS] = p.cjsw * ps_;
    return c;
}

MosCaps Mosfet::evaluate_caps(double vd, double vg, double vs,
                              double vb) const {
    const MosCapCoeffs coef = cap_coeffs();
    MosCaps c;
    CapLanes lanes;
    lanes.vd = &vd;
    lanes.vg = &vg;
    lanes.vs = &vs;
    lanes.vb = &vb;
    lanes.coef = coef.data();
    lanes.stride = 1;
    lanes.cgs = &c.cgs;
    lanes.cgd = &c.cgd;
    lanes.cgb = &c.cgb;
    lanes.cdb = &c.cdb;
    lanes.csb = &c.csb;
    cap_eval_lanes_w1(lanes, 1);
    return c;
}

void Mosfet::stamp(Stamper& st, const SimContext& ctx) const {
    const double vd = ctx.node_voltage(d_);
    const double vg = ctx.node_voltage(g_);
    const double vs = ctx.node_voltage(s_);
    const double vb = ctx.node_voltage(b_);

    const MosCurrent cur = evaluate_current(vd, vg, vs, vb);

    // Linearized channel current: stamp the Jacobian entries and move the
    // affine remainder to the RHS. Current `ids` leaves node d, enters s.
    st.add_matrix(d_, g_, cur.gm);
    st.add_matrix(d_, d_, cur.gds);
    st.add_matrix(d_, s_, cur.gms);
    st.add_matrix(d_, b_, cur.gmb);
    st.add_matrix(s_, g_, -cur.gm);
    st.add_matrix(s_, d_, -cur.gds);
    st.add_matrix(s_, s_, -cur.gms);
    st.add_matrix(s_, b_, -cur.gmb);

    const double i_affine = cur.ids - (cur.gm * vg + cur.gds * vd +
                                       cur.gms * vs + cur.gmb * vb);
    st.add_source_current(d_, s_, i_affine);

    if (ctx.is_tran()) {
        // Capacitances linearized at the previous accepted solution.
        const MosCaps& caps = caps_at_step(ctx);
        const auto base = static_cast<std::size_t>(state_base());
        const std::vector<double>& state = *ctx.state;
        stamp_capacitor(st, ctx, g_, s_, caps.cgs, state[base + 0]);
        stamp_capacitor(st, ctx, g_, d_, caps.cgd, state[base + 1]);
        stamp_capacitor(st, ctx, g_, b_, caps.cgb, state[base + 2]);
        stamp_capacitor(st, ctx, d_, b_, caps.cdb, state[base + 3]);
        stamp_capacitor(st, ctx, s_, b_, caps.csb, state[base + 4]);
    }
}

const MosCaps& Mosfet::caps_at_step(const SimContext& ctx) const {
    if (ctx.step_id < 0 || ctx.step_id != caps_step_id_) {
        caps_cache_ = evaluate_caps(ctx.prev_voltage(d_), ctx.prev_voltage(g_),
                                    ctx.prev_voltage(s_),
                                    ctx.prev_voltage(b_));
        caps_step_id_ = ctx.step_id;
    }
    return caps_cache_;
}

}  // namespace mcsm::spice

// Shared companion-model stamping for (possibly nonlinear) capacitors.
// The capacitance value is held fixed during a step (evaluated by the caller
// at the previous accepted solution), which keeps Newton-Raphson robust; the
// branch current is integrated with backward Euler or trapezoidal.
#ifndef MCSM_SPICE_CAP_COMPANION_H
#define MCSM_SPICE_CAP_COMPANION_H

#include "spice/sim_context.h"
#include "spice/stamper.h"

namespace mcsm::spice {

// Companion model of a capacitor c over one transient step (ctx.dt > 0):
// conductance geq in parallel with current source i_src (from a to b).
// `v_prev` is the capacitor voltage (v_a - v_b) and `i_prev` the accepted
// branch current at the previous step (needed for trapezoidal; ignored for
// backward Euler).
struct CapCompanion {
    double geq = 0.0;
    double i_src = 0.0;
};

inline CapCompanion capacitor_companion(const SimContext& ctx, double c,
                                        double v_prev, double i_prev) {
    CapCompanion m;
    if (ctx.integrator == Integrator::kBackwardEuler) {
        m.geq = c / ctx.dt;
        m.i_src = -m.geq * v_prev;
    } else {
        m.geq = 2.0 * c / ctx.dt;
        m.i_src = -m.geq * v_prev - i_prev;
    }
    return m;
}

// Stamps a capacitor of value c between nodes a and b (see
// capacitor_companion for `i_prev`).
inline void stamp_capacitor(Stamper& st, const SimContext& ctx, int a, int b,
                            double c, double i_prev) {
    if (!ctx.is_tran() || ctx.dt <= 0.0) return;  // open circuit in DC
    const CapCompanion m = capacitor_companion(
        ctx, c, ctx.prev_voltage(a) - ctx.prev_voltage(b), i_prev);
    st.add_conductance(a, b, m.geq);
    st.add_source_current(a, b, m.i_src);
}

// Branch current through the capacitor at the accepted new solution,
// consistent with stamp_capacitor. `v_now` and `v_prev` are the capacitor
// voltages (v_a - v_b) at t_{n+1} and t_n.
inline double capacitor_current(const SimContext& ctx, double c, double v_now,
                                double v_prev, double i_prev) {
    if (!ctx.is_tran() || ctx.dt <= 0.0) return 0.0;
    if (ctx.integrator == Integrator::kBackwardEuler)
        return c / ctx.dt * (v_now - v_prev);
    return 2.0 * c / ctx.dt * (v_now - v_prev) - i_prev;
}

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_CAP_COMPANION_H

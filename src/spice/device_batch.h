// Batch-first device evaluation: the per-device virtual stamp() loop
// regrouped into structure-of-arrays batches so the Newton inner loop runs
// as flat, vectorizable kernels instead of pointer-chasing dispatch.
//
// MosfetBatch holds every MOSFET of a prepared circuit as parallel arrays:
// EKV channel coefficients, terminal node ids, and — resolved once per
// topology against the workspace's CSR pattern — the matrix slot of every
// entry a device stamps. evaluate_and_stamp() then
//   1. gathers terminal voltages,
//   2. evaluates the EKV current/conductances for all devices with the
//      piecewise-polynomial softplus/logistic kernel, through the SIMD lane
//      kernel when the CPU dispatch picked a vector width and one fused
//      scalar loop otherwise,
//   3. scatters the linearized stamps straight into CSR value slots and RHS
//      rows, skipping the Stamper's per-write map probes.
// Companion-capacitor stamps (5 pairs per device, linearized at the
// previous accepted solution) are refreshed once per transient step — they
// are constant across the Newton iterations of a step: one sweep of the
// capacitance lane kernel over the batch, then parallel geq/isrc arrays
// scattered the same way. commit() closes an accepted step with one SoA
// loop over the same cap pairs.
#ifndef MCSM_SPICE_DEVICE_BATCH_H
#define MCSM_SPICE_DEVICE_BATCH_H

#include <cstddef>
#include <span>
#include <vector>

#include "common/sparse_matrix.h"
#include "spice/ekv_lanes.h"
#include "spice/linear_devices.h"
#include "spice/mosfet.h"

namespace mcsm::spice {

class MosfetBatch {
public:
    MosfetBatch() = default;

    // Captures `mosfets` into SoA storage and resolves every stamp
    // destination against `pattern` (the workspace CSR matrix, already
    // containing the full DC + transient incidence). Entries whose row or
    // column is ground resolve to -1 and are skipped when scattering.
    void build(const std::vector<const Mosfet*>& mosfets,
               const SparseMatrix& pattern);

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    // Evaluates all devices at the node voltages in ctx and scatters the
    // linearized stamps into `matrix`/`rhs` (rhs indexed by unknown row).
    // Always uses the fast EKV kernel.
    void evaluate_and_stamp(SparseMatrix& matrix, std::vector<double>& rhs,
                            const SimContext& ctx) const;

    // Writes every device's companion-cap currents at the accepted solution
    // ctx.x into `state_next` (same indexing as ctx.state), with the
    // capacitances the last transient assembly used; ctx.step_id must be
    // that assembly's step.
    void commit(const SimContext& ctx, std::span<double> state_next) const;

    // Evaluation-only hook for tests and benches: out[i] receives device
    // i's channel current evaluated at the node voltages in `x` (node-id
    // indexed like SimContext::x). `fast` selects the kernel (false = the
    // libm reference oracle); evaluate_and_stamp always uses the fast one.
    void evaluate(const std::vector<double>& x, MosCurrent* out,
                  bool fast) const;

    // Same hook through the dispatched SIMD lane kernel (full batch, no
    // delta gating). With the tier compiled out this runs the W=1 lane
    // instantiation, which matches the fast scalar kernel bit for bit.
    void evaluate_lanes(const std::vector<double>& x, MosCurrent* out) const;

    // Capacitances of every device at the node voltages in `x` through the
    // dispatched capacitance lane kernel (full batch, no delta gating);
    // tests check them against Mosfet::evaluate_caps bit for bit.
    void evaluate_caps(const std::vector<double>& x, MosCaps* out) const;

    // The raw capacitances the last transient assembly linearized at, 5 per
    // device in MosCaps order (cgs, cgd, cgb, cdb, csb). For tests.
    const std::vector<double>& step_caps() const { return cap_c_; }

private:
    EkvCoeffs coeffs_at(std::size_t i) const {
        EkvCoeffs c;
        c.pol = pol_[i];
        c.is = is_[i];
        c.n = nn_[i];
        c.vt0 = vt0_[i];
        c.lambda = lambda_[i];
        c.ut = ut_[i];
        return c;
    }

    template <typename SpSigFn>
    void stamp_channel(SparseMatrix& matrix, std::vector<double>& rhs,
                       const SimContext& ctx, SpSigFn&& sp_sig) const;
    // The SIMD tier's phase-split equivalent of stamp_channel: compact the
    // devices outside the stale_dv gate into a dense active list, gather
    // their voltages (and coefficients) lane-contiguously, run the
    // dispatched EKV lane kernel once over the padded block, then stamp
    // every device in original index order (active results from the lane
    // outputs, gated devices from the cached tangent) so the CSR/RHS
    // accumulation order — and therefore every bit — matches the scalar
    // path. Selected by evaluate_and_stamp when the dispatch width is > 1.
    void stamp_channel_lanes(SparseMatrix& matrix, std::vector<double>& rhs,
                             const SimContext& ctx) const;
    // Gathers every device's terminal voltages from `x` into the lane
    // voltage planes.
    void gather_voltages(const std::vector<double>& x) const;
    // Fills the gather/output scratch pointers into `lanes` for a
    // full-batch sweep over `x` and returns the padded lane count.
    std::size_t gather_full_batch(const std::vector<double>& x,
                                  EkvLanes& lanes, int width) const;
    // Recomputes the per-step companion-cap conductances/current sources,
    // re-evaluating the raw capacitances first when ctx.step_id moved on.
    void refresh_caps(const SimContext& ctx) const;
    // Raw-capacitance level: gathers the previous accepted terminal
    // voltages of the devices outside the stale_dv gate (all of them when
    // ungated) into lane scratch, runs the dispatched capacitance kernel
    // once over the padded block and scatters the results into cap_c_.
    void eval_caps(const SimContext& ctx) const;
    // Fills `lanes` with the full-batch capacitance sweep over the
    // voltages in `x` and returns the padded lane count.
    std::size_t gather_caps_full_batch(const std::vector<double>& x,
                                       CapLanes& lanes) const;

    std::size_t count_ = 0;

    // Channel coefficients (SoA mirror of EkvCoeffs).
    std::vector<double> pol_;
    std::vector<double> is_;
    std::vector<double> nn_;
    std::vector<double> vt0_;
    std::vector<double> lambda_;
    std::vector<double> ut_;

    // Terminal node ids for the voltage gather.
    std::vector<int> nd_;
    std::vector<int> ng_;
    std::vector<int> ns_;
    std::vector<int> nb_;

    // Channel stamp destinations: 8 matrix slots per device in the order
    // (d,g) (d,d) (d,s) (d,b) (s,g) (s,d) (s,s) (s,b), then the RHS rows of
    // d and s (-1: ground, skipped).
    std::vector<int> mat_slots_;
    std::vector<int> rhs_d_;
    std::vector<int> rhs_s_;

    // Capacitance coefficients: kCapCoeffs planes of cap_stride_ doubles
    // (count_ devices, then kLanePad benign pad devices with no junction).
    std::size_t cap_stride_ = 0;
    std::vector<double> cap_coef_;

    // Companion caps: 5 pairs per device in Mosfet state order
    // (g,s) (g,d) (g,b) (d,b) (s,b). Per pair: the two node ids, 4 matrix
    // slots (a,a) (b,b) (a,b) (b,a), and 2 RHS rows.
    std::vector<int> cap_a_;
    std::vector<int> cap_b_;
    std::vector<int> cap_slots_;
    std::vector<int> cap_rhs_;
    std::vector<int> cap_state_;  // state index of the pair's i_prev
    // Two-level per-step cache: the raw capacitances depend only on the
    // previous accepted solution (keyed on step_id, shared by every attempt
    // at the same step), while the companion geq/isrc additionally bake in
    // the step size and integrator (re-scaled when either changes, e.g. on
    // an adaptive retry with a smaller dt).
    mutable long long cap_step_id_ = -1;
    mutable double cap_dt_ = 0.0;
    mutable bool cap_be_ = false;
    mutable std::vector<double> cap_c_;
    mutable std::vector<double> cap_geq_;
    mutable std::vector<double> cap_isrc_;
    // Delta-gated cap cache (SimContext::stale_dv > 0 only): the previous-
    // solution terminal voltages (4 per device) each device's cap_c_ entries
    // were evaluated at. While none moved more than stale_dv the device
    // keeps its capacitances (a first-order model drift the LTE controller
    // absorbs); assembly and commit still agree on one C per pair, so the
    // companion charge bookkeeping stays consistent. cap_run_id_ scopes the
    // cache to one solve_tran run like chan_run_id_.
    mutable long long cap_run_id_ = -1;
    mutable std::vector<double> cap_v_;

    // Delta-gated channel cache (SimContext::stale_dv > 0 only): the
    // eval-point terminal voltages (4 per device) and the tangent model
    // gm, gds, gms, gmb, i_affine (5 per device) from the last evaluation.
    // While no terminal moved more than stale_dv the cached tangent is
    // re-stamped — a first-order Taylor model whose error is second order
    // in the threshold — so on a gate chain only the handful of switching
    // devices pay for EKV evaluation each Newton iteration. chan_run_id_
    // scopes the cache to one solve_tran run (see SimContext::run_id).
    mutable long long chan_run_id_ = -1;
    mutable std::vector<double> chan_v_;
    mutable std::vector<double> chan_lin_;

    // SIMD lane scratch, preallocated in build() (the Newton loop is
    // allocation-free) and padded by the widest lane count. The coefficient
    // planes are gathered only on the delta-gated path; full-batch sweeps
    // pass the (equally padded) pol_/is_/... arrays straight to the kernel.
    // Pad lanes hold benign device parameters (is = 0) written once in
    // build(), so masked remainder lanes never read uninitialized params.
    // Like the caches above, scratch makes stamping non-reentrant per
    // batch; each pool worker owns its workspace, so this is never shared.
    // The per-step capacitance sweep reuses act_idx_ and the voltage planes
    // (the channel sweep of the same assembly is done with them by then)
    // and has its own coefficient planes and outputs.
    mutable std::vector<int> act_idx_;
    mutable std::vector<double> lane_vd_;
    mutable std::vector<double> lane_vg_;
    mutable std::vector<double> lane_vs_;
    mutable std::vector<double> lane_vb_;
    mutable std::vector<double> lane_pol_;
    mutable std::vector<double> lane_is_;
    mutable std::vector<double> lane_nn_;
    mutable std::vector<double> lane_vt0_;
    mutable std::vector<double> lane_lambda_;
    mutable std::vector<double> lane_ut_;
    mutable std::vector<double> lane_gm_;
    mutable std::vector<double> lane_gds_;
    mutable std::vector<double> lane_gms_;
    mutable std::vector<double> lane_gmb_;
    mutable std::vector<double> lane_ids_;
    mutable std::vector<double> lane_ia_;
    mutable std::vector<double> lane_cap_coef_;
    mutable std::vector<double> lane_cgs_;
    mutable std::vector<double> lane_cgd_;
    mutable std::vector<double> lane_cgb_;
    mutable std::vector<double> lane_cdb_;
    mutable std::vector<double> lane_csb_;
};

// The linear counterpart of MosfetBatch: resistors, capacitors and
// independent V/I sources folded into SoA arrays with CSR slots resolved
// once per topology, eliminating the per-device virtual dispatch that
// dominates assembly at RC-network scale (pi loads, crosstalk nets).
// Resistor conductances and the source incidence (+-1 voltage-branch
// entries) are constants; source values are evaluated per assembly through
// the stored device pointer, so set_spec() reprogramming (characterization
// sweeps) is picked up; capacitor companion geq/isrc pairs are refreshed
// once per transient step, keyed on SimContext::step_id like MosfetBatch.
class LinearBatch {
public:
    LinearBatch() = default;

    // Captures the devices and resolves every stamp destination against
    // `pattern`. `n_nodes` is Circuit::node_count() (ground included),
    // needed to map branch indices onto unknown rows.
    void build(const std::vector<const Resistor*>& resistors,
               const std::vector<const Capacitor*>& capacitors,
               const std::vector<const VSource*>& vsources,
               const std::vector<const ISource*>& isources,
               const SparseMatrix& pattern, int n_nodes);

    std::size_t size() const { return n_r_ + n_c_ + n_v_ + n_i_; }
    bool empty() const { return size() == 0; }

    // Scatters every device's stamps into `matrix`/`rhs` (rhs indexed by
    // unknown row) for the assembly context `ctx`. Allocation-free.
    void stamp(SparseMatrix& matrix, std::vector<double>& rhs,
               const SimContext& ctx) const;

private:
    void refresh_caps(const SimContext& ctx) const;

    // Resistors: 4 matrix slots (a,a) (b,b) (a,b) (b,a) per device.
    std::size_t n_r_ = 0;
    std::vector<int> r_slots_;
    std::vector<double> r_g_;

    // Capacitors: same 4 slots plus the 2 RHS rows, terminal node ids for
    // the v_prev gather, the trapezoidal-current state index, and the
    // per-step companion linearization.
    std::size_t n_c_ = 0;
    std::vector<int> c_slots_;
    std::vector<int> c_rhs_;
    std::vector<int> c_a_;
    std::vector<int> c_b_;
    std::vector<int> c_state_;
    std::vector<double> c_val_;
    // Companion cache keyed on (step_id, dt, integrator): the raw values in
    // c_val_ are constant, but geq/isrc bake in the step size.
    mutable long long cap_step_id_ = -1;
    mutable double cap_dt_ = 0.0;
    mutable bool cap_be_ = false;
    mutable std::vector<double> c_geq_;
    mutable std::vector<double> c_isrc_;

    // Voltage sources: 4 incidence slots (p,br) (br,p) (m,br) (br,m) per
    // device (+1 +1 -1 -1) and the branch RHS row.
    std::size_t n_v_ = 0;
    std::vector<const VSource*> v_dev_;
    std::vector<int> v_slots_;
    std::vector<int> v_rhs_;

    // Current sources: the 2 RHS rows.
    std::size_t n_i_ = 0;
    std::vector<const ISource*> i_dev_;
    std::vector<int> i_rhs_;
};

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_DEVICE_BATCH_H

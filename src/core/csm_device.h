// CSM cells as spice::Device implementations. Golden (transistor-level) and
// model circuits run through the same MNA transient engine, which makes the
// accuracy comparisons apples-to-apples and gives the model access to
// arbitrary loads (coupled RC nets, receiver caps, other CSM cells).
//
// Solving the output/internal nodes inside the MNA Newton loop is the
// implicit counterpart of the paper's explicit updates (eqs. (4), (5)); the
// explicit integrator lives in core/explicit_sim.h and an ablation bench
// compares the two.
//
// Evaluation path: every D-dimensional table of a model shares one set of
// axes (the device checks this on construction), so a CsmCellDevice
// locates its terminal voltages once and reads all of its tables from one
// lut::GridPoint. Per Newton iteration, stamp() prepares the point at the
// iterate and takes one dot_grad per current table (Io, IN_j); per time
// step, the capacitance tables (Cm_p, Co, CN_j, Cm_p_j) are one dot each
// at the previous accepted solution. The kernel is the one TableView and
// NdTable use, in the same floating-point order, so the device matches
// per-table NdTable lookups bit for bit.
#ifndef MCSM_CORE_CSM_DEVICE_H
#define MCSM_CORE_CSM_DEVICE_H

#include <span>
#include <string>
#include <vector>

#include "core/model.h"
#include "lut/table_view.h"
#include "spice/device.h"

namespace mcsm::core {

class CsmCellDevice : public spice::Device {
public:
    // `pin_nodes` follow model.pins order; `internal_nodes` follow
    // model.internals order (pass freshly created circuit nodes - the device
    // owns their dynamics). When `stamp_input_caps` is set, the model's 1-D
    // receiver caps load the input nets (needed when the inputs are driven
    // by other cells rather than ideal sources). Throws ModelError naming
    // the first D-dimensional table whose knots differ from Io's.
    CsmCellDevice(std::string name, const CsmModel& model,
                  std::vector<int> pin_nodes, std::vector<int> internal_nodes,
                  int out_node, bool stamp_input_caps = false);

    int state_count() const override;
    std::vector<int> terminals() const override;
    void stamp(spice::Stamper& st, const spice::SimContext& ctx) const override;
    void commit(const spice::SimContext& ctx,
                std::span<double> state_next) const override;

    const CsmModel& model() const { return *model_; }
    int out_node() const { return out_; }
    const std::vector<int>& internal_nodes() const { return internals_; }

private:
    // Gathers [pins..., internals..., out] voltages from a solution vector.
    void gather(const std::vector<double>& x, std::vector<double>& v) const;

    // Capacitance tables evaluated at the previous accepted solution,
    // cached per transient step (shared by every Newton iteration and the
    // commit; each value is a multilinear interpolation over 2^dim table
    // corners). Keyed on SimContext::step_id.
    struct StepCaps {
        long long step_id = -1;
        std::vector<double> cm;   // pin -> out Miller, per pin
        double co = 0.0;
        std::vector<double> cn;   // per internal node
        std::vector<double> cmn;  // pin -> internal Miller, [p * n_int + j]
        std::vector<double> ca;   // grounded input component, per pin
    };
    const StepCaps& step_caps(const spice::SimContext& ctx) const;

    const CsmModel* model_;  // non-owning; outlives the circuit
    lut::TableView axes_;    // Io's axes, shared by every D-dim table
    std::vector<int> pins_;
    std::vector<int> internals_;
    int out_;
    bool input_caps_;
    // Scratch for stamp()/commit(), preallocated so the Newton inner loop
    // stays allocation-free. A device belongs to one circuit and circuits
    // solve single-threaded, so plain mutable members are safe.
    mutable std::vector<double> v_scratch_;
    mutable std::vector<double> vp_scratch_;
    mutable std::vector<double> grad_scratch_;
    mutable StepCaps caps_cache_;
};

// A 1-D voltage-dependent grounded capacitor C(v), used for receiver input
// loads (the paper's CA(VA) tables).
class LutCapDevice : public spice::Device {
public:
    LutCapDevice(std::string name, const lut::NdTable& table, int node,
                 double scale = 1.0);

    int state_count() const override { return 1; }
    std::vector<int> terminals() const override { return {node_}; }
    void stamp(spice::Stamper& st, const spice::SimContext& ctx) const override;
    void commit(const spice::SimContext& ctx,
                std::span<double> state_next) const override;

private:
    double cap_at(double v) const;

    const lut::NdTable* table_;  // non-owning
    int node_;
    double scale_;
    // Per-step cache of the table lookup at the previous accepted solution
    // (keyed on SimContext::step_id, see CsmCellDevice::StepCaps).
    mutable long long cap_step_id_ = -1;
    mutable double cap_cache_ = 0.0;
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_CSM_DEVICE_H

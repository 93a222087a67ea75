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
//
// Stamping path: the MNA entries a CSM device writes are a fixed sequence
// (StampTerms) set by its node bindings. The solver workspace resolves
// them to CSR slots and RHS rows once per topology (resolve_slots), and
// stamp() then writes the linearized currents and the capacitor companions
// straight into those slots, in the order the Stamper primitives would, so
// the assembled system is bitwise the Stamper path's. The companion pairs
// (geq, i_src) are cached per step like spice::LinearBatch's. The pattern
// pass, and any Stamper over a matrix of another pattern, take the
// primitives by node id.
#ifndef MCSM_CORE_CSM_DEVICE_H
#define MCSM_CORE_CSM_DEVICE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/sparse_matrix.h"
#include "core/model.h"
#include "lut/table_view.h"
#include "spice/cap_companion.h"
#include "spice/device.h"

namespace mcsm::core {

// The MNA entries a device writes in stamp(), in order: matrix terms
// (row node, col node) and RHS terms (node), each addressed by its index.
// resolve() maps them to CSR slots and unknown rows (-1 when the node is
// ground) of one pattern; writer() then picks, per stamp() call, the slots
// or the Stamper primitives.
class StampTerms {
public:
    // Appends the next matrix / RHS term.
    void add_matrix(int row_node, int col_node);
    void add_rhs(int node);
    // Appends the 4 matrix terms (a,a) (b,b) (a,b) (b,a) and the 2 RHS
    // terms a, b of a capacitor between nodes a and b (Writer::cap).
    void add_cap(int a, int b);

    void resolve(const SparseMatrix& pattern);

    class Writer {
    public:
        // Accumulates v into matrix / RHS term k.
        void matrix(std::size_t k, double v) const {
            if (vals_ == nullptr) {
                st_->add_matrix(terms_->row_[k], terms_->col_[k], v);
                return;
            }
            const int slot = terms_->slot_[k];
            if (slot >= 0) vals_[slot] += v;
        }
        void rhs(std::size_t k, double v) const {
            if (vals_ == nullptr) {
                st_->add_rhs(terms_->rhs_node_[k], v);
                return;
            }
            const int row = terms_->rhs_row_[k];
            if (row >= 0) rhs_[row] += v;
        }
        // The companion stamp of the capacitor whose terms start at matrix
        // term k and RHS term r, in spice::stamp_capacitor's order.
        void cap(std::size_t k, std::size_t r,
                 const spice::CapCompanion& m) const {
            matrix(k, m.geq);
            matrix(k + 1, m.geq);
            matrix(k + 2, -m.geq);
            matrix(k + 3, -m.geq);
            rhs(r, -m.i_src);
            rhs(r + 1, m.i_src);
        }

    private:
        friend class StampTerms;
        const StampTerms* terms_ = nullptr;
        spice::Stamper* st_ = nullptr;
        double* vals_ = nullptr;  // resolved slots in use when non-null
        double* rhs_ = nullptr;
    };
    // Straight into the slots when `st` writes into a matrix with the
    // resolved pattern, through its primitives otherwise.
    Writer writer(spice::Stamper& st) const;

private:
    std::vector<int> row_;
    std::vector<int> col_;
    std::vector<int> rhs_node_;
    std::uint64_t pattern_ = 0;  // SparseMatrix::pattern_id(); 0: none
    std::vector<int> slot_;
    std::vector<int> rhs_row_;
};

// Companion pairs of a device's capacitors for one step, in state order,
// keyed like spice::LinearBatch's cache: the capacitances and the previous
// solution are fixed per step_id, geq/i_src also bake in dt and the
// integrator.
struct CompanionCache {
    long long step_id = -1;
    double dt = 0.0;
    bool be = false;
    std::vector<spice::CapCompanion> pairs;

    bool valid(const spice::SimContext& ctx) const {
        return ctx.step_id >= 0 && ctx.step_id == step_id && ctx.dt == dt &&
               (ctx.integrator == spice::Integrator::kBackwardEuler) == be;
    }
    void set_key(const spice::SimContext& ctx) {
        step_id = ctx.step_id;
        dt = ctx.dt;
        be = ctx.integrator == spice::Integrator::kBackwardEuler;
    }
};

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
    void resolve_slots(const SparseMatrix& pattern) override;
    void commit(const spice::SimContext& ctx,
                std::span<double> state_next) const override;

    const CsmModel& model() const { return *model_; }
    int out_node() const { return out_; }
    const std::vector<int>& internal_nodes() const { return internals_; }

private:
    // Gathers [pins..., internals..., out] voltages from a solution vector.
    void gather(const std::vector<double>& x, std::vector<double>& v) const;

    // Capacitances in state order (see state_count()), evaluated at the
    // previous accepted solution and cached per transient step (shared by
    // every Newton iteration and the commit). Keyed on SimContext::step_id.
    const std::vector<double>& step_caps(const spice::SimContext& ctx) const;

    const CsmModel* model_;  // non-owning; outlives the circuit
    lut::TableView axes_;    // Io's axes, shared by every D-dim table
    std::vector<int> pins_;
    std::vector<int> internals_;
    int out_;
    bool input_caps_;
    // Terminal nodes of each capacitor, in state order.
    std::vector<int> cap_a_;
    std::vector<int> cap_b_;
    // Matrix terms: one per (current source, model axis) in source-major
    // order -- Io at out, then IN_j at internal j -- then 4 per capacitor;
    // RHS terms: one per current source, then 2 per capacitor.
    StampTerms terms_;
    // Scratch and per-step caches for stamp()/commit(), preallocated so the
    // Newton inner loop stays allocation-free. A device belongs to one
    // circuit and circuits solve single-threaded, so plain mutable members
    // are safe.
    mutable std::vector<double> v_scratch_;
    mutable std::vector<double> vp_scratch_;
    mutable std::vector<double> grad_scratch_;
    mutable long long caps_step_id_ = -1;
    mutable std::vector<double> caps_;
    mutable CompanionCache companion_;
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
    void resolve_slots(const SparseMatrix& pattern) override;
    void commit(const spice::SimContext& ctx,
                std::span<double> state_next) const override;

private:
    double cap_at(double v) const;

    lut::TableView table_;  // over the borrowed NdTable
    int node_;
    double scale_;
    StampTerms terms_;  // the capacitor's 4 matrix and 2 RHS terms
    // Per-step cache of the table lookup at the previous accepted solution
    // (keyed on SimContext::step_id, see CsmCellDevice::step_caps) and of
    // its companion pair.
    mutable long long cap_step_id_ = -1;
    mutable double cap_cache_ = 0.0;
    mutable CompanionCache companion_;
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_CSM_DEVICE_H

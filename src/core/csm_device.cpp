#include "core/csm_device.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "spice/cap_companion.h"
#include "spice/circuit.h"

namespace mcsm::core {

namespace {

// Every D-dimensional table must sit on Io's knots: the device evaluates
// them all from one grid point prepared on Io's axes.
void require_shared_axes(const CsmModel& model) {
    const lut::NdTable& io = model.i_out;
    auto check = [&](const lut::NdTable& t, const std::string& label) {
        for (std::size_t d = 0; d < io.rank(); ++d)
            if (t.axis(d).knots() != io.axis(d).knots()) {
                std::string msg = "CsmCellDevice: table ";
                msg += label;
                msg += " does not share the axes of Io";
                throw ModelError(msg);
            }
    };
    for (std::size_t j = 0; j < model.internal_count(); ++j)
        check(model.i_internal[j], "IN_" + model.internals[j]);
    for (std::size_t p = 0; p < model.pin_count(); ++p)
        check(model.c_miller[p], "Cm_" + model.pins[p]);
    check(model.c_out, "Co");
    for (std::size_t j = 0; j < model.internal_count(); ++j)
        check(model.c_internal[j], "CN_" + model.internals[j]);
    for (std::size_t p = 0; p < model.pin_count(); ++p)
        for (std::size_t j = 0; j < model.internal_count(); ++j)
            check(model.c_miller_internal[p * model.internal_count() + j],
                  "Cm_" + model.pins[p] + "_" + model.internals[j]);
}

}  // namespace

void StampTerms::add_matrix(int row_node, int col_node) {
    row_.push_back(row_node);
    col_.push_back(col_node);
    slot_.push_back(-1);
}

void StampTerms::add_rhs(int node) {
    rhs_node_.push_back(node);
    rhs_row_.push_back(-1);
}

void StampTerms::add_cap(int a, int b) {
    add_matrix(a, a);
    add_matrix(b, b);
    add_matrix(a, b);
    add_matrix(b, a);
    add_rhs(a);
    add_rhs(b);
}

void StampTerms::resolve(const SparseMatrix& pattern) {
    // Unknown-space index of a node (ground is eliminated), as in
    // Stamper::unknown_of_node.
    const auto unknown = [](int node) { return node - 1; };
    for (std::size_t k = 0; k < row_.size(); ++k) {
        slot_[k] = -1;
        if (row_[k] == spice::Circuit::kGround ||
            col_[k] == spice::Circuit::kGround)
            continue;
        slot_[k] = pattern.slot_index(
            static_cast<std::size_t>(unknown(row_[k])),
            static_cast<std::size_t>(unknown(col_[k])));
        require(slot_[k] >= 0,
                "StampTerms: stamp destination missing from the pattern");
    }
    for (std::size_t k = 0; k < rhs_node_.size(); ++k)
        rhs_row_[k] = unknown(rhs_node_[k]);
    pattern_ = pattern.pattern_id();
}

StampTerms::Writer StampTerms::writer(spice::Stamper& st) const {
    Writer w;
    w.terms_ = this;
    w.st_ = &st;
    SparseMatrix* csr = st.csr();
    if (csr != nullptr && pattern_ != 0 && csr->pattern_id() == pattern_) {
        w.vals_ = csr->values().data();
        w.rhs_ = st.rhs().data();
    }
    return w;
}

CsmCellDevice::CsmCellDevice(std::string name, const CsmModel& model,
                             std::vector<int> pin_nodes,
                             std::vector<int> internal_nodes, int out_node,
                             bool stamp_input_caps)
    : Device(std::move(name)),
      model_(&model),
      pins_(std::move(pin_nodes)),
      internals_(std::move(internal_nodes)),
      out_(out_node),
      input_caps_(stamp_input_caps) {
    model.check_consistent();
    require_shared_axes(model);
    axes_ = lut::TableView::of(model.i_out);
    require(pins_.size() == model.pin_count(),
            "CsmCellDevice: pin node count mismatch");
    require(internals_.size() == model.internal_count(),
            "CsmCellDevice: internal node count mismatch");
    v_scratch_.resize(model.dim());
    vp_scratch_.resize(model.dim());
    grad_scratch_.resize(model.dim());

    // Capacitors in state order: pin -> out Miller per pin, Co, CN per
    // internal node, pin -> internal Miller [p * n_int + j], and the
    // grounded input component per pin when input caps are stamped.
    const auto add_cap = [this](int a, int b) {
        cap_a_.push_back(a);
        cap_b_.push_back(b);
    };
    const int gnd = spice::Circuit::kGround;
    for (int p : pins_) add_cap(p, out_);
    add_cap(out_, gnd);
    for (int n : internals_) add_cap(n, gnd);
    for (int p : pins_)
        for (int n : internals_) add_cap(p, n);
    if (input_caps_)
        for (int p : pins_) add_cap(p, gnd);
    caps_.assign(cap_a_.size(), 0.0);
    companion_.pairs.resize(cap_a_.size());

    std::vector<int> axis_nodes(pins_);
    axis_nodes.insert(axis_nodes.end(), internals_.begin(), internals_.end());
    axis_nodes.push_back(out_);
    std::vector<int> sources{out_};
    sources.insert(sources.end(), internals_.begin(), internals_.end());
    for (int at : sources)
        for (int col : axis_nodes) terms_.add_matrix(at, col);
    for (int at : sources) terms_.add_rhs(at);
    for (std::size_t c = 0; c < cap_a_.size(); ++c)
        terms_.add_cap(cap_a_[c], cap_b_[c]);
}

std::vector<int> CsmCellDevice::terminals() const {
    std::vector<int> t(pins_);
    t.insert(t.end(), internals_.begin(), internals_.end());
    t.push_back(out_);
    return t;
}

int CsmCellDevice::state_count() const {
    // Trapezoidal branch currents: one per Miller cap, one for Co, one per
    // CN, one per pin->internal Miller, and one per input cap when stamped.
    return static_cast<int>(model_->pin_count() + 1 +
                            model_->internal_count() +
                            model_->pin_count() * model_->internal_count() +
                            (input_caps_ ? model_->pin_count() : 0));
}

void CsmCellDevice::resolve_slots(const SparseMatrix& pattern) {
    terms_.resolve(pattern);
}

void CsmCellDevice::gather(const std::vector<double>& x,
                           std::vector<double>& v) const {
    v.resize(model_->dim());
    std::size_t d = 0;
    for (int n : pins_) v[d++] = x[static_cast<std::size_t>(n)];
    for (int n : internals_) v[d++] = x[static_cast<std::size_t>(n)];
    v[d] = x[static_cast<std::size_t>(out_)];
}

void CsmCellDevice::stamp(spice::Stamper& st,
                          const spice::SimContext& ctx) const {
    const std::size_t n_int = model_->internal_count();
    const std::size_t dim = model_->dim();

    std::vector<double>& v = v_scratch_;
    gather(*ctx.x, v);
    std::vector<double>& grad = grad_scratch_;
    // One point at the iterate serves every current table. It lives on the
    // stack: scratch pages shared by all devices a thread stamps.
    lut::GridPoint point;
    point.prepare(axes_, v, /*with_gradient=*/true);
    const StampTerms::Writer w = terms_.writer(st);

    // Nonlinear current source I(V) leaving its node (current source k:
    // Io, then IN_j); Jacobian from the exact gradient of the multilinear
    // interpolant, the rest on the RHS.
    auto stamp_source = [&](const lut::NdTable& table, std::size_t k) {
        const double i = point.dot_grad(table.values(), grad);
        double affine = i;
        for (std::size_t d = 0; d < dim; ++d) {
            w.matrix(k * dim + d, grad[d]);
            affine -= grad[d] * v[d];
        }
        w.rhs(k, -affine);
    };

    stamp_source(model_->i_out, 0);
    for (std::size_t j = 0; j < n_int; ++j)
        stamp_source(model_->i_internal[j], 1 + j);

    if (!ctx.is_tran() || ctx.dt <= 0.0) return;  // caps open in DC

    if (!companion_.valid(ctx)) {
        const std::vector<double>& caps = step_caps(ctx);
        const auto base = static_cast<std::size_t>(state_base());
        for (std::size_t c = 0; c < caps.size(); ++c)
            companion_.pairs[c] = spice::capacitor_companion(
                ctx, caps[c],
                ctx.prev_voltage(cap_a_[c]) - ctx.prev_voltage(cap_b_[c]),
                (*ctx.state)[base + c]);
        companion_.set_key(ctx);
    }
    const std::size_t k0 = (1 + n_int) * dim;
    const std::size_t r0 = 1 + n_int;
    for (std::size_t c = 0; c < companion_.pairs.size(); ++c)
        w.cap(k0 + 4 * c, r0 + 2 * c, companion_.pairs[c]);
}

const std::vector<double>& CsmCellDevice::step_caps(
    const spice::SimContext& ctx) const {
    if (ctx.step_id >= 0 && ctx.step_id == caps_step_id_) return caps_;
    caps_step_id_ = ctx.step_id;

    const std::size_t n_pins = model_->pin_count();
    const std::size_t n_int = model_->internal_count();

    // Evaluated at the previous accepted step (consistent with the MOSFET
    // device treatment).
    std::vector<double>& vp = vp_scratch_;
    gather(*ctx.x_prev, vp);
    lut::GridPoint point;
    point.prepare(axes_, vp, /*with_gradient=*/false);
    std::size_t c = 0;
    auto cap = [&](const lut::NdTable& t) {
        caps_[c++] = point.dot(t.values());
    };
    for (std::size_t p = 0; p < n_pins; ++p) cap(model_->c_miller[p]);
    cap(model_->c_out);
    for (std::size_t j = 0; j < n_int; ++j) cap(model_->c_internal[j]);
    for (std::size_t p = 0; p < n_pins; ++p)
        for (std::size_t j = 0; j < n_int; ++j)
            cap(model_->c_miller_internal[p * n_int + j]);
    if (input_caps_) {
        // The 1-D c_in tables are extracted with the output tied, so they
        // already contain the pin->out Miller part; the grounded component
        // of eq. (3) is CA = c_in - Cm (the Miller cap is stamped above;
        // caps_[p] is pin p's).
        for (std::size_t p = 0; p < n_pins; ++p)
            caps_[c++] = std::max(0.0, model_->cin(p, vp[p]) - caps_[p]);
    }
    return caps_;
}

void CsmCellDevice::commit(const spice::SimContext& ctx,
                           std::span<double> state_next) const {
    if (!ctx.is_tran()) return;
    // The capacitances of this step's Newton iterations (or a fresh
    // evaluation at x_prev when caching is off).
    const std::vector<double>& caps = step_caps(ctx);
    const auto base = static_cast<std::size_t>(state_base());
    const std::vector<double>& state = *ctx.state;
    for (std::size_t c = 0; c < caps.size(); ++c) {
        const int a = cap_a_[c];
        const int b = cap_b_[c];
        state_next[base + c] = spice::capacitor_current(
            ctx, caps[c], ctx.node_voltage(a) - ctx.node_voltage(b),
            ctx.prev_voltage(a) - ctx.prev_voltage(b), state[base + c]);
    }
}

LutCapDevice::LutCapDevice(std::string name, const lut::NdTable& table,
                           int node, double scale)
    : Device(std::move(name)),
      table_(lut::TableView::of(table)),
      node_(node),
      scale_(scale) {
    require(table.rank() == 1, "LutCapDevice: table must be 1-D");
    require(scale > 0.0, "LutCapDevice: scale must be positive");
    terms_.add_cap(node_, spice::Circuit::kGround);
    companion_.pairs.resize(1);
}

double LutCapDevice::cap_at(double v) const {
    const double q[1] = {v};
    return scale_ * table_.at(std::span<const double>(q, 1));
}

void LutCapDevice::resolve_slots(const SparseMatrix& pattern) {
    terms_.resolve(pattern);
}

void LutCapDevice::stamp(spice::Stamper& st,
                         const spice::SimContext& ctx) const {
    if (!ctx.is_tran() || ctx.dt <= 0.0) return;  // open in DC
    if (!companion_.valid(ctx)) {
        if (ctx.step_id < 0 || ctx.step_id != cap_step_id_) {
            cap_cache_ = cap_at(ctx.prev_voltage(node_));
            cap_step_id_ = ctx.step_id;
        }
        companion_.pairs[0] = spice::capacitor_companion(
            ctx, cap_cache_,
            ctx.prev_voltage(node_) -
                ctx.prev_voltage(spice::Circuit::kGround),
            (*ctx.state)[static_cast<std::size_t>(state_base())]);
        companion_.set_key(ctx);
    }
    terms_.writer(st).cap(0, 0, companion_.pairs[0]);
}

void LutCapDevice::commit(const spice::SimContext& ctx,
                          std::span<double> state_next) const {
    if (!ctx.is_tran()) return;
    const double c = (ctx.step_id >= 0 && ctx.step_id == cap_step_id_)
                         ? cap_cache_
                         : cap_at(ctx.prev_voltage(node_));
    const double i_prev =
        (*ctx.state)[static_cast<std::size_t>(state_base())];
    state_next[static_cast<std::size_t>(state_base())] =
        spice::capacitor_current(ctx, c, ctx.node_voltage(node_),
                                 ctx.prev_voltage(node_), i_prev);
}

}  // namespace mcsm::core

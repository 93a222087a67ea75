#include "spice/stamper.h"

#include "common/error.h"

namespace mcsm::spice {

Stamper::Stamper(int n_nodes, int n_branches, SparseMatrix* sparse)
    : n_nodes_(n_nodes),
      n_branches_(n_branches),
      sparse_(sparse) {
    require(n_nodes >= 1, "Stamper: need at least the ground node");
    require(sparse != nullptr && sparse->size() == system_size(),
            "Stamper: sparse storage size mismatch");
    b_.assign(system_size(), 0.0);
}

Stamper::Stamper(int n_nodes, int n_branches,
                 std::vector<std::pair<int, int>>* pattern_out)
    : n_nodes_(n_nodes),
      n_branches_(n_branches),
      pattern_out_(pattern_out) {
    require(n_nodes >= 1, "Stamper: need at least the ground node");
    require(pattern_out != nullptr, "Stamper: null pattern sink");
    b_.assign(system_size(), 0.0);
}

std::size_t Stamper::system_size() const {
    return static_cast<std::size_t>(n_nodes_ - 1 + n_branches_);
}

void Stamper::clear() {
    if (sparse_ != nullptr) sparse_->set_zero();
    std::fill(b_.begin(), b_.end(), 0.0);
}

void Stamper::sink_pattern_miss() const {
    throw ModelError(
        "Stamper: stamp outside the prepared sparsity pattern "
        "(device set changed without prepare()?)");
}

void Stamper::add_voltage_branch(int branch, int p, int m, double v) {
    require(branch >= 0 && branch < n_branches_, "Stamper: bad branch index");
    const int bi = unknown_of_branch(branch);
    const int pu = unknown_of_node(p);
    const int mu = unknown_of_node(m);
    if (pu >= 0) {
        // Branch current flows out of p through the source.
        sink(pu, bi, 1.0);
        sink(bi, pu, 1.0);
    }
    if (mu >= 0) {
        sink(mu, bi, -1.0);
        sink(bi, mu, -1.0);
    }
    b_[static_cast<std::size_t>(bi)] += v;
}

}  // namespace mcsm::spice

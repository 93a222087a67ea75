#include "common/sparse_matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.h"

namespace mcsm {

void SparseMatrix::build(std::size_t n,
                         std::vector<std::pair<int, int>> entries) {
    static std::atomic<std::uint64_t> next_pattern_id{1};
    pattern_id_ = next_pattern_id.fetch_add(1, std::memory_order_relaxed);
    n_ = n;
    for (std::size_t i = 0; i < n; ++i)
        entries.emplace_back(static_cast<int>(i), static_cast<int>(i));
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

    row_ptr_.assign(n + 1, 0);
    cols_.clear();
    cols_.reserve(entries.size());
    for (const auto& [r, c] : entries) {
        require(r >= 0 && c >= 0 && static_cast<std::size_t>(r) < n &&
                    static_cast<std::size_t>(c) < n,
                "SparseMatrix: entry out of range");
        ++row_ptr_[static_cast<std::size_t>(r) + 1];
        cols_.push_back(c);
    }
    for (std::size_t r = 0; r < n; ++r) row_ptr_[r + 1] += row_ptr_[r];
    vals_.assign(cols_.size(), 0.0);

    // 512^2 ints = 1 MiB; circuits past that size switch to the row-hashed
    // map, whose footprint scales with nnz instead of n^2.
    constexpr std::size_t kSlotMapLimit = 512;
    slot_map_.clear();
    hash_ptr_.clear();
    hash_key_.clear();
    hash_slot_.clear();
    if (n <= kSlotMapLimit) {
        slot_map_.assign(n * n, -1);
        for (std::size_t r = 0; r < n; ++r) {
            for (int s = row_ptr_[r]; s < row_ptr_[r + 1]; ++s)
                slot_map_[r * n + static_cast<std::size_t>(cols_[s])] = s;
        }
        return;
    }

    // Per-row open-addressed tables: power-of-two capacity at least twice
    // the row's nnz keeps the probe chains O(1).
    hash_ptr_.assign(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t nnz_r =
            static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r]);
        std::size_t cap = 2;
        while (cap < 2 * nnz_r) cap *= 2;
        hash_ptr_[r + 1] = hash_ptr_[r] + cap;
    }
    hash_key_.assign(hash_ptr_[n], -1);
    hash_slot_.assign(hash_ptr_[n], -1);
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t base = hash_ptr_[r];
        const std::size_t mask = hash_ptr_[r + 1] - base - 1;
        for (int s = row_ptr_[r]; s < row_ptr_[r + 1]; ++s) {
            std::size_t h =
                hash_col(static_cast<std::size_t>(cols_[s])) & mask;
            while (hash_key_[base + h] >= 0) h = (h + 1) & mask;
            hash_key_[base + h] = cols_[s];
            hash_slot_[base + h] = s;
        }
    }
}

void SparseMatrix::set_zero() {
    std::fill(vals_.begin(), vals_.end(), 0.0);
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
    const int slot = slot_of(r, c);
    return slot < 0 ? 0.0 : vals_[static_cast<std::size_t>(slot)];
}

void SparseMatrix::multiply(std::span<const double> x,
                            std::span<double> y) const {
    require(x.size() == n_ && y.size() == n_,
            "SparseMatrix: multiply size mismatch");
    for (std::size_t r = 0; r < n_; ++r) {
        double acc = 0.0;
        for (int s = row_ptr_[r]; s < row_ptr_[r + 1]; ++s)
            acc += vals_[static_cast<std::size_t>(s)] *
                   x[static_cast<std::size_t>(cols_[static_cast<std::size_t>(s)])];
        y[r] = acc;
    }
}

double SparseMatrix::max_abs() const {
    double m = 0.0;
    for (double v : vals_) m = std::max(m, std::fabs(v));
    return m;
}

}  // namespace mcsm

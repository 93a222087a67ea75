// Compressed-sparse-row matrix over a fixed sparsity pattern. The pattern is
// built once (from the MNA device incidence) and the values are rewritten in
// place on every Newton assembly, so the hot path never allocates.
#ifndef MCSM_COMMON_SPARSE_MATRIX_H
#define MCSM_COMMON_SPARSE_MATRIX_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace mcsm {

class SparseMatrix {
public:
    SparseMatrix() = default;

    // Builds an n x n pattern from (row, col) coordinates. Duplicates are
    // merged; every diagonal slot is added so LU pivots always have storage.
    // Assigns a fresh pattern_id().
    void build(std::size_t n, std::vector<std::pair<int, int>> entries);

    std::size_t size() const { return n_; }
    std::size_t nnz() const { return cols_.size(); }
    bool empty() const { return n_ == 0; }

    // Identity of the sparsity pattern: unique per build() in the process
    // (0 before the first one) and kept by copies, which share the
    // pattern. Nothing but build() changes a pattern, so equal ids mean the
    // same (row, col) -> slot layout: SparseLu reuses its symbolic analysis
    // and devices reuse resolved slots on that test alone.
    std::uint64_t pattern_id() const { return pattern_id_; }

    // Zeroes every stored value without touching the pattern.
    void set_zero();

    // Accumulates v into slot (r, c). Returns false when (r, c) is not part
    // of the pattern (the caller decides whether that is an error).
    // Stamping hot path: inline, O(1) through the slot map.
    bool add(std::size_t r, std::size_t c, double v) {
        const int slot = slot_of(r, c);
        if (slot < 0) return false;
        vals_[static_cast<std::size_t>(slot)] += v;
        return true;
    }

    // Value at (r, c); zero for entries outside the pattern.
    double at(std::size_t r, std::size_t c) const;

    // Slot index of (r, c) within values(), -1 outside the pattern. Device
    // batches resolve their stamp destinations once per topology and then
    // scatter by slot, skipping the per-write map probe.
    int slot_index(std::size_t r, std::size_t c) const { return slot_of(r, c); }

    // Flat value storage, indexed by slot (row-major over the CSR rows).
    std::span<double> values() { return vals_; }
    std::span<const double> values() const { return vals_; }

    // y = A x over the stored pattern (sizes n). Used for residual
    // computation in the block DC solver; allocation-free.
    void multiply(std::span<const double> x, std::span<double> y) const;

    // Row access for factorization / iteration.
    std::span<const int> row_cols(std::size_t r) const {
        return {cols_.data() + row_ptr_[r],
                static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
    }
    std::span<const double> row_values(std::size_t r) const {
        return {vals_.data() + row_ptr_[r],
                static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
    }
    std::span<double> row_values(std::size_t r) {
        return {vals_.data() + row_ptr_[r],
                static_cast<std::size_t>(row_ptr_[r + 1] - row_ptr_[r])};
    }

    // max |a_ij| over the stored entries; zero for an empty matrix.
    double max_abs() const;

private:
    // Slot index of (r, c) or -1. O(1) either way: a dense (r, c) -> slot
    // map while n_^2 stays small, a per-row open-addressed hash beyond it,
    // so stamping stays constant-time for flat netlists in the thousands of
    // nodes (stamping is on the Newton hot path).
    int slot_of(std::size_t r, std::size_t c) const {
        if (!slot_map_.empty()) return slot_map_[r * n_ + c];
        return slot_of_hashed(r, c);
    }

    // Per-row hash probe: each row owns a power-of-two region of
    // hash_key_/hash_slot_ at load factor <= 0.5, so linear probing
    // terminates in O(1) expected steps on the fixed pattern.
    int slot_of_hashed(std::size_t r, std::size_t c) const {
        const std::size_t base = hash_ptr_[r];
        const std::size_t mask = hash_ptr_[r + 1] - base - 1;
        std::size_t h = hash_col(c) & mask;
        for (;;) {
            const int key = hash_key_[base + h];
            if (key == static_cast<int>(c)) return hash_slot_[base + h];
            if (key < 0) return -1;
            h = (h + 1) & mask;
        }
    }

    static std::size_t hash_col(std::size_t c) {
        // Fibonacci multiplicative hash; spreads consecutive column ids.
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ull) >> 32);
    }

    std::size_t n_ = 0;
    std::uint64_t pattern_id_ = 0;
    std::vector<int> row_ptr_;  // n_ + 1 offsets into cols_/vals_
    std::vector<int> cols_;     // sorted within each row
    std::vector<double> vals_;
    // Dense (r, c) -> slot map (-1: absent); built when n_^2 stays small
    // enough. Larger patterns use the row-hashed map below instead.
    std::vector<int> slot_map_;
    // Row-hashed col -> slot map (hash_key_[i] = col or -1 when empty).
    std::vector<std::size_t> hash_ptr_;  // n_ + 1 offsets, pow2-sized rows
    std::vector<int> hash_key_;
    std::vector<int> hash_slot_;
};

}  // namespace mcsm

#endif  // MCSM_COMMON_SPARSE_MATRIX_H

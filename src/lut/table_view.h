// Non-owning view of an N-dimensional lookup table: named axes over
// borrowed knot spans plus a borrowed value span, with the same multilinear
// interpolation (and analytic gradient) as NdTable.
//
// The multilinear kernel is GridPoint below: preparing one locates a point
// on a set of axes once (cell, corner offsets, corner weights, gradient
// weights); a dot product then evaluates any table on those axes.
// TableView::at is "prepare, then one dot", and NdTable::at delegates to a
// TableView, so an owned table, a view over foreign storage -- e.g. doubles
// inside an mmap'd model pack (serve/mapped_store) -- and a CSM cell that
// reads all of its tables from one prepared point (core/csm_device) go
// through ONE kernel and produce bitwise-identical results.
//
// The view allocates nothing and is cheap to copy; the borrowed storage must
// outlive it (the serve layer pins the mapping with a shared_ptr next to the
// view).
#ifndef MCSM_LUT_TABLE_VIEW_H
#define MCSM_LUT_TABLE_VIEW_H

#include <array>
#include <cstddef>
#include <span>
#include <string_view>

namespace mcsm::lut {

class NdTable;
class GridPoint;

class TableView {
public:
    // Rank cap shared with NdTable (which rejects rank > 8 on
    // construction); keeps the view fixed-size and allocation-free.
    static constexpr std::size_t kMaxRank = 8;

    struct AxisView {
        std::string_view name;
        std::span<const double> knots;  // strictly increasing, >= 2 knots

        double lo() const { return knots.front(); }
        double hi() const { return knots.back(); }
        std::size_t size() const { return knots.size(); }
    };

    TableView() = default;
    // Axes/values must satisfy the NdTable invariants (each axis >= 2
    // strictly increasing knots, values.size() == product of axis sizes);
    // throws ModelError otherwise. Axis name/knot storage is borrowed. This
    // is the constructor for foreign storage that nothing else has checked.
    TableView(std::span<const AxisView> axes, std::span<const double> values,
              std::string_view name = {});

    // View over an owned table; borrows its axes and values. Does not
    // re-check the knots: Axis and NdTable already hold the invariants.
    static TableView of(const NdTable& table);

    std::string_view name() const { return name_; }
    std::size_t rank() const { return rank_; }
    const AxisView& axis(std::size_t d) const { return axes_[d]; }
    std::span<const double> values() const { return values_; }

    // Multilinear interpolation at x (clamped to the axis ranges).
    double at(std::span<const double> x) const { return eval(x, {}); }
    // Interpolated value and exact multilinear gradient.
    double at_with_gradient(std::span<const double> x,
                            std::span<double> grad) const {
        return eval(x, grad);
    }

private:
    friend class GridPoint;

    // Copies the first `rank_` axes and derives the strides; returns the
    // grid's value count.
    std::size_t set_axes(std::span<const AxisView> axes);
    double eval(std::span<const double> x, std::span<double> grad) const;

    std::string_view name_;
    std::size_t rank_ = 0;
    std::array<AxisView, kMaxRank> axes_{};
    std::array<std::size_t, kMaxRank> strides_{};
    std::span<const double> values_;
};

// A point located once on a set of table axes. prepare() finds the grid
// cell per axis (clamping out-of-range coordinates), the flat offsets of the
// cell's 2^rank corners, their multilinear weights and, when asked, the
// weights of the analytic gradient. dot()/dot_grad() then evaluate any table
// whose values are laid out on the same axes (last axis fastest) without
// locating anything again.
//
// The arithmetic is the per-corner multilinear loop, regrouped only where
// floating point allows it: each corner weight is the direct product of its
// axis factors (u or 1-u) taken in axis order, corners are accumulated in
// index order, a gradient term is (+-w) * v with w the direct product of
// the other axis factors in axis order, and each gradient sum is finally
// scaled by 1/h of its cell. The kernel is specialised on rank at compile
// time (1..8) and dispatched once per call; up to rank 6, prepare()
// unrolls its corner loop on the rank, so every weight is a straight-line
// product of factors picked at compile time. A GridPoint is fixed-size
// scratch (about 20 KB at the rank cap) and allocates nothing.
class GridPoint {
public:
    // Locates x (one coordinate per axis of `axes`; only the axes of the
    // view are used, not its values). `with_gradient` also forms the
    // gradient weights dot_grad() needs.
    void prepare(const TableView& axes, std::span<const double> x,
                 bool with_gradient);

    // Value at the prepared point of the table whose flat values are
    // `values`; the table must be defined on the prepared axes.
    double dot(std::span<const double> values) const;
    // Value and exact multilinear gradient d(value)/dx_d (grad has one
    // entry per axis); the point must have been prepared with the gradient.
    double dot_grad(std::span<const double> values,
                    std::span<double> grad) const;

private:
    static constexpr std::size_t kMaxRank = TableView::kMaxRank;
    static constexpr std::size_t kMaxCorners = std::size_t{1} << kMaxRank;

    template <std::size_t R>
    void prepare_rank(const TableView& axes, const double* x,
                      bool with_gradient);
    template <std::size_t R>
    double dot_rank(const double* v) const;
    template <std::size_t R>
    double dot_grad_rank(const double* v, double* grad) const;

    std::size_t rank_ = 0;
    std::size_t value_count_ = 0;
    std::size_t base_ = 0;  // flat index of the cell's low corner
    bool has_gradient_ = false;
    // Only the first rank_ (resp. 2^rank_, rank_ * 2^rank_) entries are
    // written by prepare(); the rest stays uninitialized, so a point on the
    // stack costs no 20 KB clear per lookup.
    std::array<double, kMaxRank> inv_h_;             // 1 / cell width per axis
    std::array<std::size_t, kMaxCorners> offset_;    // corner -> flat - base_
    std::array<double, kMaxCorners> weight_;         // corner weights
    // Signed gradient weights, [d * 2^rank_ + corner].
    std::array<double, kMaxRank * kMaxCorners> grad_weight_;
};

}  // namespace mcsm::lut

#endif  // MCSM_LUT_TABLE_VIEW_H

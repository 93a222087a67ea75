#include "lut/table_view.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "lut/ndtable.h"

namespace mcsm::lut {

namespace {

// Segment locate over a borrowed knot span; identical arithmetic to
// Axis::locate (common::bracket + clamped normalized position) so a view
// and the owning table pick the same cell and weights for every x.
struct Locate {
    std::size_t index;
    double u;
};

Locate locate(std::span<const double> knots, double x) {
    const auto it = std::upper_bound(knots.begin(), knots.end(), x);
    std::size_t i = it == knots.begin()
                        ? 0
                        : static_cast<std::size_t>(it - knots.begin()) - 1;
    i = std::min(i, knots.size() - 2);
    const double x0 = knots[i];
    const double x1 = knots[i + 1];
    const double u = std::clamp((x - x0) / (x1 - x0), 0.0, 1.0);
    return {i, u};
}

// Calls f(std::integral_constant<std::size_t, rank>) for rank 1..8.
template <typename F>
decltype(auto) with_rank(std::size_t rank, F&& f) {
    using std::integral_constant;
    switch (rank) {
        case 1: return f(integral_constant<std::size_t, 1>{});
        case 2: return f(integral_constant<std::size_t, 2>{});
        case 3: return f(integral_constant<std::size_t, 3>{});
        case 4: return f(integral_constant<std::size_t, 4>{});
        case 5: return f(integral_constant<std::size_t, 5>{});
        case 6: return f(integral_constant<std::size_t, 6>{});
        case 7: return f(integral_constant<std::size_t, 7>{});
        case 8: return f(integral_constant<std::size_t, 8>{});
        default: break;
    }
    throw ModelError("table lookup: rank must be 1..8");
}

}  // namespace

std::size_t TableView::set_axes(std::span<const AxisView> axes) {
    std::size_t total = 1;
    // Last axis is the fastest-varying dimension (NdTable layout).
    for (std::size_t d = rank_; d-- > 0;) {
        axes_[d] = axes[d];
        strides_[d] = total;
        total *= axes[d].knots.size();
    }
    return total;
}

TableView::TableView(std::span<const AxisView> axes,
                     std::span<const double> values, std::string_view name)
    : name_(name), rank_(axes.size()), values_(values) {
    require(rank_ >= 1, "TableView: need at least one axis");
    require(rank_ <= kMaxRank, "TableView: rank above 8 is unsupported");
    for (const AxisView& ax : axes) {
        require(ax.knots.size() >= 2,
                "TableView: axis needs at least two knots");
        for (std::size_t i = 1; i < ax.knots.size(); ++i)
            require(ax.knots[i] > ax.knots[i - 1],
                    "TableView: axis knots must strictly increase");
    }
    require(values_.size() == set_axes(axes),
            "TableView: value count does not match axes");
}

TableView TableView::of(const NdTable& table) {
    require(table.rank() >= 1 && table.rank() <= kMaxRank,
            "TableView: rank above 8 is unsupported");
    std::array<AxisView, kMaxRank> axes;
    for (std::size_t d = 0; d < table.rank(); ++d) {
        const Axis& ax = table.axis(d);
        axes[d] = AxisView{ax.name(), ax.knots()};
    }
    TableView view;
    view.name_ = table.name();
    view.rank_ = table.rank();
    view.values_ = table.values();
    view.set_axes({axes.data(), table.rank()});
    return view;
}

double TableView::eval(std::span<const double> x,
                       std::span<double> grad) const {
    const bool want_grad = !grad.empty();
    GridPoint point;
    point.prepare(*this, x, want_grad);
    return want_grad ? point.dot_grad(values_, grad) : point.dot(values_);
}

void GridPoint::prepare(const TableView& axes, std::span<const double> x,
                        bool with_gradient) {
    require(x.size() == axes.rank(),
            "table lookup: coordinate rank mismatch");
    rank_ = axes.rank();
    value_count_ = axes.values().size();
    has_gradient_ = with_gradient;
    with_rank(rank_, [&](auto r) {
        prepare_rank<decltype(r)::value>(axes, x.data(), with_gradient);
    });
}

template <std::size_t R>
void GridPoint::prepare_rank(const TableView& axes, const double* x,
                             bool with_gradient) {
    constexpr std::size_t kCorners = std::size_t{1} << R;

    // Locate the cell per axis. f[d][0] = 1 - u_d is the low knot's factor,
    // f[d][1] = u_d the high knot's.
    double f[R][2];
    std::size_t stride[R];
    std::size_t base = 0;
    for (std::size_t d = 0; d < R; ++d) {
        const std::span<const double> knots = axes.axes_[d].knots;
        const Locate loc = locate(knots, x[d]);
        stride[d] = axes.strides_[d];
        base += loc.index * stride[d];
        f[d][0] = 1.0 - loc.u;
        f[d][1] = loc.u;
        inv_h_[d] = 1.0 / (knots[loc.index + 1] - knots[loc.index]);
    }
    base_ = base;

    // Corner c takes the high knot on axis d when bit d of c is set. Up to
    // rank 6 (64 corners, the largest cells) the corner loop is unrolled on
    // the rank, so every bit test and factor pick below is a compile-time
    // constant; ranks 7 and 8 loop, which keeps their code small.
    const auto each_corner = [](auto&& fn) {
        if constexpr (R <= 6) {
            [&]<std::size_t... C>(std::index_sequence<C...>) {
                (fn(std::integral_constant<std::size_t, C>{}), ...);
            }(std::make_index_sequence<kCorners>{});
        } else {
            for (std::size_t c = 0; c < kCorners; ++c) fn(c);
        }
    };
    // Weight: the direct product f_0 * f_1 * ... * f_{R-1}, in axis order
    // (the per-corner loop's product).
    each_corner([&](auto corner) {
        const std::size_t c = corner;
        std::size_t offset = 0;
        double w = 1.0;
        for (std::size_t d = 0; d < R; ++d) {
            if ((c >> d) & 1u) offset += stride[d];
            w *= f[d][(c >> d) & 1u];
        }
        offset_[c] = offset;
        weight_[c] = w;
    });
    if (!with_gradient) return;
    // d(weight)/du_d: the same product without f_d, still in axis order,
    // signed + for the high knot and - for the low one.
    each_corner([&](auto corner) {
        const std::size_t c = corner;
        for (std::size_t d = 0; d < R; ++d) {
            double w = 1.0;
            for (std::size_t e = 0; e < R; ++e)
                if (e != d) w *= f[e][(c >> e) & 1u];
            grad_weight_[d * kCorners + c] = ((c >> d) & 1u) ? w : -w;
        }
    });
}

double GridPoint::dot(std::span<const double> values) const {
    require(values.size() == value_count_,
            "GridPoint: table does not match the prepared axes");
    return with_rank(rank_, [&](auto r) {
        return dot_rank<decltype(r)::value>(values.data() + base_);
    });
}

double GridPoint::dot_grad(std::span<const double> values,
                           std::span<double> grad) const {
    require(values.size() == value_count_,
            "GridPoint: table does not match the prepared axes");
    require(has_gradient_, "GridPoint: prepared without the gradient");
    require(grad.size() == rank_, "table lookup: gradient rank mismatch");
    return with_rank(rank_, [&](auto r) {
        return dot_grad_rank<decltype(r)::value>(values.data() + base_,
                                                 grad.data());
    });
}

template <std::size_t R>
double GridPoint::dot_rank(const double* v) const {
    constexpr std::size_t kCorners = std::size_t{1} << R;
    double value = 0.0;
    for (std::size_t c = 0; c < kCorners; ++c)
        value += weight_[c] * v[offset_[c]];
    return value;
}

template <std::size_t R>
double GridPoint::dot_grad_rank(const double* v, double* grad) const {
    constexpr std::size_t kCorners = std::size_t{1} << R;
    double value = 0.0;
    double g[R];
    for (std::size_t d = 0; d < R; ++d) g[d] = 0.0;
    for (std::size_t c = 0; c < kCorners; ++c) {
        const double vc = v[offset_[c]];
        value += weight_[c] * vc;
        for (std::size_t d = 0; d < R; ++d)
            g[d] += grad_weight_[d * kCorners + c] * vc;
    }
    for (std::size_t d = 0; d < R; ++d) grad[d] = g[d] * inv_h_[d];
    return value;
}

}  // namespace mcsm::lut

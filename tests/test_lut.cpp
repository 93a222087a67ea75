// Unit and property tests for the N-D lookup tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "lut/axis.h"
#include "lut/ndtable.h"
#include "lut/table_io.h"
#include "lut/table_view.h"

namespace mcsm::lut {
namespace {

TEST(Axis, LocateClampsAndNormalizes) {
    Axis ax("v", {0.0, 1.0, 3.0});
    auto loc = ax.locate(0.5);
    EXPECT_EQ(loc.index, 0u);
    EXPECT_DOUBLE_EQ(loc.u, 0.5);
    loc = ax.locate(2.0);
    EXPECT_EQ(loc.index, 1u);
    EXPECT_DOUBLE_EQ(loc.u, 0.5);
    loc = ax.locate(-10.0);
    EXPECT_EQ(loc.index, 0u);
    EXPECT_DOUBLE_EQ(loc.u, 0.0);
    loc = ax.locate(10.0);
    EXPECT_EQ(loc.index, 1u);
    EXPECT_DOUBLE_EQ(loc.u, 1.0);
}

TEST(Axis, RejectsBadKnots) {
    EXPECT_THROW(Axis("v", {0.0}), ModelError);
    EXPECT_THROW(Axis("v", {0.0, 0.0}), ModelError);
    EXPECT_THROW(Axis("v", {1.0, 0.0}), ModelError);
}

TEST(NdTable, ReproducesGridValuesExactly) {
    NdTable t({Axis::uniform("x", 0.0, 1.0, 5), Axis::uniform("y", -1.0, 1.0, 4)},
              "f");
    t.fill([](std::span<const double> x) { return 3.0 * x[0] - x[1] * x[1]; });
    t.for_each_grid_point([&](std::span<const std::size_t>,
                              std::span<const double> x, double& v) {
        const std::array<double, 2> q{x[0], x[1]};
        EXPECT_DOUBLE_EQ(t.at(q), v);
    });
}

TEST(NdTable, InterpolatesMultilinearFunctionExactly) {
    // A multilinear function is reproduced exactly everywhere, including
    // cross terms.
    NdTable t({Axis::uniform("x", 0.0, 2.0, 3), Axis::uniform("y", 0.0, 2.0, 4),
               Axis::uniform("z", -1.0, 1.0, 3)});
    auto f = [](std::span<const double> x) {
        return 1.0 + 2.0 * x[0] - 0.5 * x[1] + x[2] + 0.25 * x[0] * x[1] * x[2];
    };
    t.fill(f);
    for (double x = 0.1; x < 2.0; x += 0.31) {
        for (double y = 0.05; y < 2.0; y += 0.43) {
            for (double z = -0.95; z < 1.0; z += 0.27) {
                const std::array<double, 3> q{x, y, z};
                EXPECT_NEAR(t.at(q), f(q), 1e-12);
            }
        }
    }
}

TEST(NdTable, GradientMatchesFiniteDifference) {
    NdTable t({Axis::uniform("x", 0.0, 1.0, 6), Axis::uniform("y", 0.0, 1.0, 5)});
    t.fill([](std::span<const double> x) {
        return std::sin(3.0 * x[0]) * std::cos(2.0 * x[1]);
    });
    const double h = 1e-8;
    for (double x = 0.07; x < 1.0; x += 0.17) {
        for (double y = 0.03; y < 1.0; y += 0.19) {
            std::array<double, 2> g{};
            const std::array<double, 2> q{x, y};
            t.at_with_gradient(q, g);
            const std::array<double, 2> qx1{x + h, y};
            const std::array<double, 2> qx0{x - h, y};
            const std::array<double, 2> qy1{x, y + h};
            const std::array<double, 2> qy0{x, y - h};
            EXPECT_NEAR(g[0], (t.at(qx1) - t.at(qx0)) / (2 * h), 1e-5);
            EXPECT_NEAR(g[1], (t.at(qy1) - t.at(qy0)) / (2 * h), 1e-5);
        }
    }
}

TEST(NdTable, ClampsOutsideAxes) {
    NdTable t({Axis::uniform("x", 0.0, 1.0, 2)});
    t.fill([](std::span<const double> x) { return x[0]; });
    const std::array<double, 1> below{-5.0};
    const std::array<double, 1> above{7.0};
    EXPECT_DOUBLE_EQ(t.at(below), 0.0);
    EXPECT_DOUBLE_EQ(t.at(above), 1.0);
    // Gradient inside the clamped edge cell is still the cell slope.
    std::array<double, 1> g{};
    t.at_with_gradient(above, g);
    EXPECT_DOUBLE_EQ(g[0], 1.0);
}

TEST(NdTable, FourDimensionalRoundTrip) {
    // The paper's 4-D use case: (VA, VB, VN, Vo).
    std::vector<Axis> axes;
    for (const char* n : {"va", "vb", "vn", "vo"})
        axes.push_back(Axis::uniform(n, -0.12, 1.32, 5));
    NdTable t(std::move(axes), "Io");
    t.fill([](std::span<const double> x) {
        return x[0] - 2.0 * x[1] + 0.5 * x[2] * x[3];
    });
    EXPECT_EQ(t.rank(), 4u);
    EXPECT_EQ(t.value_count(), 625u);
    const std::array<double, 4> q{0.3, 0.7, 1.0, 0.1};
    EXPECT_NEAR(t.at(q), 0.3 - 1.4 + 0.5 * 1.0 * 0.1, 1e-12);
}

TEST(TableIo, WriteTableOutputIsPinned) {
    // The text export's exact layout: hexfloat doubles (bit-exact, also
    // for -0.0 and subnormals), "_" for an empty name, eight values per
    // line.
    NdTable t({Axis("va", {0.0, 0.5, 1.5}), Axis("", {-1.0, 0.25, 2.0})},
              "Io");
    t.fill([](std::span<const double> x) { return x[0] * 7.0 - x[1]; });
    t.set_grid_value(std::vector<std::size_t>{0, 1}, -0.0);
    t.set_grid_value(std::vector<std::size_t>{0, 2}, 5e-324);
    std::ostringstream os;
    write_table(os, t);
    EXPECT_EQ(os.str(),
              "table Io 2\n"
              "axis va 3 0x0p+0 0x1p-1 0x1.8p+0\n"
              "axis _ 3 -0x1p+0 0x1p-2 0x1p+1\n"
              "values 9\n"
              "0x1p+0 -0x0p+0 0x0.0000000000001p-1022 0x1.2p+2 0x1.ap+1 "
              "0x1.8p+0 0x1.7p+3 0x1.48p+3\n"
              "0x1.1p+3 \n"
              "end\n");
}

// --- the multilinear kernel against an independent oracle -----------------

// Reference multilinear interpolation, one table at a time: locate the cell
// per axis, then accumulate over the 2^rank corners, forming each corner
// weight and each gradient term from scratch. This is the straightforward
// loop the prepared GridPoint regroups; the kernel must reproduce it bit
// for bit (same products in the same order).
double oracle_eval(const TableView& t, std::span<const double> x,
                   std::span<double> grad) {
    const std::size_t rank = t.rank();
    const bool want_grad = !grad.empty();
    std::vector<std::size_t> stride(rank);
    std::size_t total = 1;
    for (std::size_t d = rank; d-- > 0;) {
        stride[d] = total;
        total *= t.axis(d).size();
    }
    std::size_t base = 0;
    std::vector<double> u(rank);
    std::vector<double> inv_h(rank);
    for (std::size_t d = 0; d < rank; ++d) {
        const std::span<const double> k = t.axis(d).knots;
        const auto it = std::upper_bound(k.begin(), k.end(), x[d]);
        std::size_t i = it == k.begin()
                            ? 0
                            : static_cast<std::size_t>(it - k.begin()) - 1;
        i = std::min(i, k.size() - 2);
        base += i * stride[d];
        u[d] = std::clamp((x[d] - k[i]) / (k[i + 1] - k[i]), 0.0, 1.0);
        inv_h[d] = 1.0 / (k[i + 1] - k[i]);
    }
    double value = 0.0;
    if (want_grad) std::fill(grad.begin(), grad.end(), 0.0);
    for (std::size_t corner = 0; corner < (std::size_t{1} << rank);
         ++corner) {
        std::size_t flat = base;
        double weight = 1.0;
        for (std::size_t d = 0; d < rank; ++d) {
            const bool high = (corner >> d) & 1u;
            if (high) flat += stride[d];
            weight *= high ? u[d] : (1.0 - u[d]);
        }
        const double v = t.values()[flat];
        value += weight * v;
        if (!want_grad) continue;
        for (std::size_t d = 0; d < rank; ++d) {
            double w = 1.0;
            for (std::size_t e = 0; e < rank; ++e) {
                if (e == d) continue;
                w *= ((corner >> e) & 1u) ? u[e] : (1.0 - u[e]);
            }
            grad[d] += (((corner >> d) & 1u) ? 1.0 : -1.0) * w * v;
        }
    }
    if (want_grad)
        for (std::size_t d = 0; d < rank; ++d) grad[d] *= inv_h[d];
    return value;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Random non-uniform axes (2..5 knots each) and two tables on them.
struct RandomGrid {
    std::vector<Axis> axes;
    NdTable a;
    NdTable b;
};

RandomGrid random_grid(std::size_t rank, std::mt19937_64& rng) {
    std::uniform_real_distribution<double> gap(0.05, 0.6);
    std::uniform_int_distribution<int> knots(2, 5);
    std::normal_distribution<double> value(0.0, 1e-4);
    RandomGrid g;
    for (std::size_t d = 0; d < rank; ++d) {
        std::vector<double> k{-0.2 + gap(rng)};
        const int n = knots(rng);
        while (static_cast<int>(k.size()) < n) k.push_back(k.back() + gap(rng));
        std::string name = "x";
        name += std::to_string(d);
        g.axes.emplace_back(std::move(name), std::move(k));
    }
    g.a = NdTable(g.axes, "a");
    g.b = NdTable(g.axes, "b");
    g.a.fill([&](std::span<const double>) { return value(rng); });
    g.b.fill([&](std::span<const double>) { return value(rng); });
    return g;
}

// One coordinate per kind of position along an axis: exact knot hits
// (first, interior, last), the first and last segment interiors, and
// out-of-range values clamped on either side.
double random_coordinate(const Axis& ax, std::mt19937_64& rng) {
    const std::vector<double>& k = ax.knots();
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> knot(0, k.size() - 1);
    switch (std::uniform_int_distribution<int>(0, 5)(rng)) {
        case 0: return k[knot(rng)];
        case 1: return k[0] + unit(rng) * (k[1] - k[0]);
        case 2: return k[k.size() - 2] + unit(rng) * (k.back() - k[k.size() - 2]);
        case 3: return k.front() - 0.5 * unit(rng) - 1e-9;
        case 4: return k.back() + 0.5 * unit(rng) + 1e-9;
        default: return k.front() + unit(rng) * (k.back() - k.front());
    }
}

TEST(GridPoint, MatchesPerTableOracleBitwise) {
    std::mt19937_64 rng(20080310);
    // Every rank the dispatcher accepts; the 128- and 256-corner ranks get
    // fewer samples.
    for (std::size_t rank = 1; rank <= TableView::kMaxRank; ++rank) {
        const RandomGrid g = random_grid(rank, rng);
        const TableView va = TableView::of(g.a);
        const TableView vb = TableView::of(g.b);
        // Foreign-storage view over the same spans (validating path).
        std::vector<TableView::AxisView> axis_views;
        for (const Axis& ax : g.axes)
            axis_views.push_back({ax.name(), ax.knots()});
        const TableView foreign(axis_views, g.a.values(), "a");

        std::vector<double> x(rank);
        std::vector<double> want_grad(rank);
        std::vector<double> got_grad(rank);
        GridPoint point;
        GridPoint point_grad;
        const int samples = rank <= 6 ? 400 : 60;
        for (int sample = 0; sample < samples; ++sample) {
            for (std::size_t d = 0; d < rank; ++d)
                x[d] = random_coordinate(g.axes[d], rng);
            point.prepare(va, x, /*with_gradient=*/false);
            point_grad.prepare(va, x, /*with_gradient=*/true);
            for (const TableView* t : {&va, &vb}) {
                const double want = oracle_eval(*t, x, {});
                const double want_g = oracle_eval(*t, x, want_grad);
                ASSERT_EQ(bits(want), bits(want_g));
                // One point serves every table on the same axes.
                EXPECT_EQ(bits(point.dot(t->values())), bits(want))
                    << "rank " << rank << " sample " << sample;
                EXPECT_EQ(bits(point_grad.dot(t->values())), bits(want));
                EXPECT_EQ(bits(point_grad.dot_grad(t->values(), got_grad)),
                          bits(want));
                for (std::size_t d = 0; d < rank; ++d)
                    EXPECT_EQ(bits(got_grad[d]), bits(want_grad[d]))
                        << "rank " << rank << " sample " << sample
                        << " axis " << d;
                EXPECT_EQ(bits(t->at(x)), bits(want));
                EXPECT_EQ(bits(t->at_with_gradient(x, got_grad)), bits(want));
                for (std::size_t d = 0; d < rank; ++d)
                    EXPECT_EQ(bits(got_grad[d]), bits(want_grad[d]));
            }
            EXPECT_EQ(bits(g.a.at(x)), bits(oracle_eval(va, x, {})));
            EXPECT_EQ(bits(foreign.at(x)), bits(oracle_eval(va, x, {})));
        }
    }
}

TEST(GridPoint, RejectsMisuse) {
    NdTable t({Axis::uniform("x", 0.0, 1.0, 3), Axis::uniform("y", 0.0, 1.0, 4)});
    NdTable other({Axis::uniform("x", 0.0, 1.0, 3)});
    const TableView view = TableView::of(t);
    const std::array<double, 2> q{0.2, 0.7};
    std::array<double, 2> grad{};
    GridPoint point;
    EXPECT_THROW(point.prepare(view, std::span<const double>(q.data(), 1),
                               false),
                 ModelError);
    point.prepare(view, q, /*with_gradient=*/false);
    // A table of another size cannot be read through this point.
    EXPECT_THROW(point.dot(other.values()), ModelError);
    // No gradient weights were formed.
    EXPECT_THROW(point.dot_grad(t.values(), grad), ModelError);
    point.prepare(view, q, /*with_gradient=*/true);
    std::array<double, 1> short_grad{};
    EXPECT_THROW(point.dot_grad(t.values(), short_grad), ModelError);
    EXPECT_NO_THROW(point.dot_grad(t.values(), grad));
}

TEST(TableView, ForeignStorageIsValidated) {
    const std::vector<double> knots{0.0, 1.0, 0.5};
    const std::vector<double> values(3, 0.0);
    const TableView::AxisView bad{"x", knots};
    EXPECT_THROW(TableView(std::span<const TableView::AxisView>(&bad, 1),
                           values),
                 ModelError);
    const std::vector<double> good_knots{0.0, 1.0};
    const TableView::AxisView good{"x", good_knots};
    EXPECT_THROW(TableView(std::span<const TableView::AxisView>(&good, 1),
                           values),
                 ModelError);
}

}  // namespace
}  // namespace mcsm::lut

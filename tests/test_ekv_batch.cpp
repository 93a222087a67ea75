// Batch-first device evaluation tests:
//  * the fast softplus/logistic pair agrees with the libm reference to
//    tight tolerance over the whole argument range,
//  * batched SoA EKV evaluation with the reference kernel reproduces the
//    scalar Mosfet::evaluate_current bit-for-bit (ulp-scale) over
//    randomized operating points in every region,
//  * the fast kernel stays within a physically negligible tolerance of the
//    scalar reference on the same points,
//  * solve_dc_sweep (blocked multi-RHS quasi-Newton) matches per-point
//    solve_dc on a fully forced characterization fixture and on a generic
//    circuit with free nodes,
//  * shortcut characterization is bitwise deterministic across thread
//    counts,
//  * the SIMD lane tier (EKV channel and capacitance kernels) is bit-equal
//    to the scalar code at every width, full-batch and delta-gated,
//  * a golden transient and characterized models keep pinned bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "cells/library.h"
#include "common/numeric.h"
#include "common/numeric_tables.h"
#include "common/simd.h"
#include "core/characterizer.h"
#include "engine/scenarios.h"
#include "obs/metrics.h"
#include "serve/model_store.h"
#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "spice/device_batch.h"
#include "spice/ekv_lanes.h"
#include "spice/solver_workspace.h"
#include "tech/tech130.h"
#include "wave/waveform.h"

namespace mcsm {
namespace {

using spice::Circuit;
using spice::MosCurrent;
using spice::Mosfet;
using spice::SourceSpec;

// Distance in representable doubles (same-sign finite inputs; equal bits
// return 0). Used for the "ulp-scale" SoA-vs-scalar assertion.
std::int64_t ulp_diff(double a, double b) {
    if (a == b) return 0;
    auto ordered = [](double x) {
        const auto bits = std::bit_cast<std::int64_t>(x);
        return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits
                        : bits;
    };
    const std::int64_t da = ordered(a);
    const std::int64_t db = ordered(b);
    return da > db ? da - db : db - da;
}

TEST(FastEkv, SoftplusLogisticPairMatchesReference) {
    std::mt19937 rng(20260728);
    std::uniform_real_distribution<double> wide(-80.0, 80.0);
    std::uniform_real_distribution<double> core(-12.0, 12.0);
    std::uniform_real_distribution<double> seam(7.9, 8.1);

    auto check = [](double x) {
        const SpSig f = softplus_logistic_fast(x);
        const SpSig r = softplus_logistic_ref(x);
        if (r.sp < 1e-300) {
            // Deep-underflow tail (the fast path clamps its exponential
            // argument at 708 to stay in the normal range): both values
            // are zero for any physical purpose.
            EXPECT_LT(f.sp, 1e-290) << "x=" << x;
            EXPECT_LT(f.sig, 1e-290) << "x=" << x;
            return;
        }
        EXPECT_NEAR(f.sp, r.sp, 5e-11 * std::fabs(r.sp)) << "x=" << x;
        EXPECT_NEAR(f.sig, r.sig, 5e-12 * std::max(r.sig, 1e-300))
            << "x=" << x;
    };

    for (int i = 0; i < 4000; ++i) check(wide(rng));
    for (int i = 0; i < 4000; ++i) check(core(rng));
    // The piecewise seams and the reference's own switch points.
    for (int i = 0; i < 500; ++i) {
        const double s = seam(rng);
        check(s);
        check(-s);
    }
    for (double x : {-745.0, -300.0, -30.0, -8.0, 0.0, 8.0, 30.0, 700.0})
        check(x);
}

// A circuit holding NMOS and PMOS devices of varied geometry between the
// first few nodes, prepared so the workspace exposes its MosfetBatch.
struct BatchBench {
    Circuit circuit;
    tech::Technology tech = tech::make_tech130();
    std::vector<const Mosfet*> mosfets;
    int n_nodes = 0;

    BatchBench() {
        const int vdd = circuit.node("vdd");
        circuit.add_vsource("VDD", vdd, Circuit::kGround,
                            SourceSpec::dc(tech.vdd));
        // Built with += to dodge GCC 12 -Wrestrict false positives on
        // `const char* + std::string&&` (see test_sta_scale.cpp).
        for (int k = 0; k < 6; ++k) {
            std::string n = "n";
            n += std::to_string(k);
            circuit.node(n);
        }
        std::mt19937 rng(7);
        std::uniform_int_distribution<int> pick(0, 6);
        std::uniform_real_distribution<double> wmul(0.5, 4.0);
        for (int k = 0; k < 24; ++k) {
            const bool nmos = k % 2 == 0;
            const auto& p = nmos ? tech.nmos : tech.pmos;
            const double w = (nmos ? tech.wn_unit : tech.wp_unit) * wmul(rng);
            std::string name = "M";
            name += std::to_string(k);
            circuit.add_mosfet(name, pick(rng), pick(rng), pick(rng),
                               nmos ? Circuit::kGround : vdd, p, w, tech.lmin);
        }
        circuit.prepare();
        for (const auto& dev : circuit.devices())
            if (const auto* m = dynamic_cast<const Mosfet*>(dev.get()))
                mosfets.push_back(m);
        n_nodes = circuit.node_count();
    }

    // Random node voltages spanning every device region: below-ground and
    // above-rail margins included (the characterizer sweeps there).
    std::vector<double> random_x(std::mt19937& rng) const {
        std::uniform_real_distribution<double> v(-0.4, tech.vdd + 0.4);
        std::vector<double> x(static_cast<std::size_t>(n_nodes) +
                                  static_cast<std::size_t>(
                                      circuit.branch_total()),
                              0.0);
        for (int n = 1; n < n_nodes; ++n)
            x[static_cast<std::size_t>(n)] = v(rng);
        return x;
    }
};

TEST(MosfetBatch, SoAReferenceKernelMatchesScalarAtUlpScale) {
    BatchBench bench;
    const spice::MosfetBatch& batch =
        bench.circuit.workspace().mosfet_batch();
    ASSERT_EQ(batch.size(), bench.mosfets.size());

    std::mt19937 rng(20260728);
    std::vector<MosCurrent> out(batch.size());
    for (int trial = 0; trial < 200; ++trial) {
        const std::vector<double> x = bench.random_x(rng);
        batch.evaluate(x, out.data(), /*fast=*/false);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Mosfet& m = *bench.mosfets[i];
            const MosCurrent ref = m.evaluate_current(
                x[static_cast<std::size_t>(m.drain())],
                x[static_cast<std::size_t>(m.gate())],
                x[static_cast<std::size_t>(m.source())],
                x[static_cast<std::size_t>(m.bulk())]);
            EXPECT_LE(ulp_diff(out[i].ids, ref.ids), 2) << "device " << i;
            EXPECT_LE(ulp_diff(out[i].gm, ref.gm), 2) << "device " << i;
            EXPECT_LE(ulp_diff(out[i].gds, ref.gds), 2) << "device " << i;
            EXPECT_LE(ulp_diff(out[i].gms, ref.gms), 2) << "device " << i;
            EXPECT_LE(ulp_diff(out[i].gmb, ref.gmb), 2) << "device " << i;
        }
    }
}

TEST(MosfetBatch, FastKernelTightToScalarInAllRegions) {
    BatchBench bench;
    const spice::MosfetBatch& batch =
        bench.circuit.workspace().mosfet_batch();
    std::mt19937 rng(42);
    std::vector<MosCurrent> out(batch.size());

    // Every current/conductance within 1e-9 relative with an attoamp-scale
    // absolute floor: far below device tolerances, Newton vtol, and every
    // golden-waveform gate.
    auto expect_close = [](double got, double want, const char* what,
                     std::size_t i) {
        EXPECT_NEAR(got, want, 1e-9 * std::fabs(want) + 1e-18)
            << what << " device " << i;
    };
    auto check_x = [&](const std::vector<double>& x) {
        batch.evaluate(x, out.data(), /*fast=*/true);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Mosfet& m = *bench.mosfets[i];
            const MosCurrent ref = m.evaluate_current(
                x[static_cast<std::size_t>(m.drain())],
                x[static_cast<std::size_t>(m.gate())],
                x[static_cast<std::size_t>(m.source())],
                x[static_cast<std::size_t>(m.bulk())]);
            expect_close(out[i].ids, ref.ids, "ids", i);
            expect_close(out[i].gm, ref.gm, "gm", i);
            expect_close(out[i].gds, ref.gds, "gds", i);
            expect_close(out[i].gms, ref.gms, "gms", i);
            expect_close(out[i].gmb, ref.gmb, "gmb", i);
        }
    };

    // Randomized points (subthreshold, linear, saturation, reversed d/s and
    // the sweep margins all occur across 24 devices x shared nodes).
    for (int trial = 0; trial < 200; ++trial) check_x(bench.random_x(rng));
    // Deterministic corners: rails and mid-rail.
    for (double va : {0.0, 0.6, 1.2}) {
        for (double vb : {0.0, 0.05, 1.2}) {
            std::vector<double> x(static_cast<std::size_t>(bench.n_nodes) +
                                      static_cast<std::size_t>(
                                          bench.circuit.branch_total()),
                                  0.0);
            for (int n = 1; n < bench.n_nodes; ++n)
                x[static_cast<std::size_t>(n)] = (n % 2 != 0) ? va : vb;
            check_x(x);
        }
    }
}

// NOR2 characterization-style fixture: every node forced, so the blocked
// sweep's shared-factorization rounds are exact.
TEST(DcSweep, BlockedMatchesPerPointOnForcedFixture) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    auto build = [&]() {
        Circuit c;
        const int vdd = c.node("vdd");
        const int a = c.node("a");
        const int b = c.node("b");
        const int out = c.node("out");
        c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(t.vdd));
        c.add_vsource("VA", a, Circuit::kGround, SourceSpec::dc(0.0));
        c.add_vsource("VB", b, Circuit::kGround, SourceSpec::dc(0.0));
        c.add_vsource("VOUT", out, Circuit::kGround, SourceSpec::dc(0.0));
        const cells::CellType& nor = lib.get("NOR2");
        std::unordered_map<std::string, int> conn{{cells::kVdd, vdd},
                                                  {cells::kGnd, 0},
                                                  {"A", a},
                                                  {"B", b},
                                                  {cells::kOut, out}};
        // Force the internal stack node too (as the MCSM fixture does): a
        // floating stack node's DC value is only pinned to within leakage
        // indeterminacy, which is no basis for a voltage comparison.
        for (const std::string& formal : nor.internal_nodes()) {
            const int n = c.node("int_" + formal);
            conn[formal] = n;
            c.add_vsource("VN_" + formal, n, Circuit::kGround,
                          SourceSpec::dc(0.6));
        }
        nor.instantiate(c, "DUT", conn);
        return c;
    };

    // Grid of (va, vb, vout) including the characterization margins.
    std::vector<double> grid{-0.2, 0.0, 0.3, 0.6, 0.9, 1.2, 1.4};
    std::vector<double> values;
    for (double va : grid)
        for (double vb : grid)
            for (double vout : grid) {
                values.push_back(va);
                values.push_back(vb);
                values.push_back(vout);
            }
    const std::size_t n_points = values.size() / 3;

    // Per-point reference.
    Circuit ref = build();
    ref.prepare();
    std::vector<std::vector<double>> want;
    spice::DcResult dc;
    for (std::size_t p = 0; p < n_points; ++p) {
        ref.vsource("VA").set_spec(SourceSpec::dc(values[p * 3 + 0]));
        ref.vsource("VB").set_spec(SourceSpec::dc(values[p * 3 + 1]));
        ref.vsource("VOUT").set_spec(SourceSpec::dc(values[p * 3 + 2]));
        dc = spice::solve_dc(ref, {}, dc.x.empty() ? nullptr : &dc.x);
        want.push_back(dc.x);
    }

    Circuit blk = build();
    blk.prepare();
    std::vector<spice::VSource*> swept{&blk.vsource("VA"),
                                       &blk.vsource("VB"),
                                       &blk.vsource("VOUT")};
    std::size_t seen = 0;
    spice::solve_dc_sweep(
        blk, swept, values, n_points, {}, nullptr,
        [&](std::size_t p, const std::vector<double>& x) {
            ASSERT_EQ(p, seen++);
            ASSERT_EQ(x.size(), want[p].size());
            for (std::size_t i = 0; i < x.size(); ++i)
                EXPECT_NEAR(x[i], want[p][i],
                            1e-6 * std::max(1.0, std::fabs(want[p][i])))
                    << "point " << p << " unknown " << i;
        });
    EXPECT_EQ(seen, n_points);
}

// Generic circuit with free nodes: the shared-matrix rounds are a
// quasi-Newton iteration here; converged points must still land on the
// true solution, and stragglers must fall back cleanly.
TEST(DcSweep, BlockedMatchesPerPointWithFreeNodes) {
    const tech::Technology t = tech::make_tech130();
    auto build = [&]() {
        Circuit c;
        const int vdd = c.node("vdd");
        const int in = c.node("in");
        const int out = c.node("out");  // free node
        const int mid = c.node("mid");  // free node
        c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(t.vdd));
        c.add_vsource("VIN", in, Circuit::kGround, SourceSpec::dc(0.0));
        c.add_mosfet("MN", out, in, Circuit::kGround, Circuit::kGround,
                     t.nmos, t.wn_unit, t.lmin);
        c.add_mosfet("MP", out, in, vdd, vdd, t.pmos, t.wp_unit, t.lmin);
        c.add_resistor("RL", out, mid, 5e3);
        c.add_resistor("RG", mid, Circuit::kGround, 50e3);
        return c;
    };

    std::vector<double> values;
    for (double v = -0.1; v <= 1.31; v += 0.05) values.push_back(v);
    const std::size_t n_points = values.size();

    Circuit ref = build();
    ref.prepare();
    std::vector<std::vector<double>> want;
    spice::DcResult dc;
    for (std::size_t p = 0; p < n_points; ++p) {
        ref.vsource("VIN").set_spec(SourceSpec::dc(values[p]));
        dc = spice::solve_dc(ref, {}, dc.x.empty() ? nullptr : &dc.x);
        want.push_back(dc.x);
    }

    Circuit blk = build();
    blk.prepare();
    std::vector<spice::VSource*> swept{&blk.vsource("VIN")};
    spice::DcSweepOptions sopt;
    sopt.block = 8;
    std::size_t seen = 0;
    spice::solve_dc_sweep(
        blk, swept, values, n_points, sopt, nullptr,
        [&](std::size_t p, const std::vector<double>& x) {
            ++seen;
            for (std::size_t i = 0; i < x.size(); ++i)
                EXPECT_NEAR(x[i], want[p][i],
                            1e-6 * std::max(1.0, std::fabs(want[p][i])))
                    << "point " << p << " unknown " << i;
        });
    EXPECT_EQ(seen, n_points);
}

TEST(Characterizer, ShortcutSweepBitwiseAcrossThreadCounts) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    const core::Characterizer chr(lib);

    core::CharOptions opt;
    opt.grid_points = 5;
    opt.transient_caps = false;
    opt.threads = 1;
    const core::CsmModel serial =
        chr.characterize("NOR2", core::ModelKind::kMcsm, {"A", "B"}, opt);
    opt.threads = 3;
    const core::CsmModel parallel =
        chr.characterize("NOR2", core::ModelKind::kMcsm, {"A", "B"}, opt);

    auto same = [](const lut::NdTable& a, const lut::NdTable& b) {
        ASSERT_EQ(a.value_count(), b.value_count());
        for (std::size_t i = 0; i < a.value_count(); ++i)
            EXPECT_EQ(a.values()[i], b.values()[i]) << a.name() << "[" << i
                                                    << "]";
    };
    same(serial.i_out, parallel.i_out);
    same(serial.c_out, parallel.c_out);
    ASSERT_EQ(serial.i_internal.size(), parallel.i_internal.size());
    for (std::size_t j = 0; j < serial.i_internal.size(); ++j)
        same(serial.i_internal[j], parallel.i_internal[j]);
    ASSERT_EQ(serial.c_miller.size(), parallel.c_miller.size());
    for (std::size_t p = 0; p < serial.c_miller.size(); ++p)
        same(serial.c_miller[p], parallel.c_miller[p]);
    ASSERT_EQ(serial.c_in.size(), parallel.c_in.size());
    for (std::size_t p = 0; p < serial.c_in.size(); ++p)
        same(serial.c_in[p], parallel.c_in[p]);
}

// ---- SIMD lane tier -----------------------------------------------------

// The fast-kernel reduction tables are compile-time literals; assert they
// are the exact libm doubles, so a platform whose libm disagreed would fail
// loudly here instead of drifting quietly.
TEST(NumericTables, ConstexprTablesMatchLibmBitwise) {
    for (int j = 0; j < 32; ++j)
        EXPECT_EQ(numeric_tables::kExp2Neg32[j],
                  std::exp2(-static_cast<double>(j) / 32.0))
            << "kExp2Neg32[" << j << "]";
    for (int j = 0; j < 64; ++j) {
        const double m0 = 1.0 + static_cast<double>(j) / 64.0;
        EXPECT_EQ(numeric_tables::kInvM0_64[j], 1.0 / m0)
            << "kInvM0_64[" << j << "]";
        EXPECT_EQ(numeric_tables::kLogM0_64[j], std::log(m0))
            << "kLogM0_64[" << j << "]";
    }
    EXPECT_EQ(numeric_tables::kLn2, std::log(2.0));
}

// Widths this build AND this CPU can actually run (1 always works).
std::vector<int> runnable_widths() {
    std::vector<int> ws{1};
    if (simd::cpu_caps().avx2_fma && simd::width_compiled(4)) ws.push_back(4);
    if (simd::cpu_caps().avx512 && simd::width_compiled(8)) ws.push_back(8);
    return ws;
}

// Pins the lane-kernel width for a scope; restores auto dispatch on exit.
struct ForcedWidth {
    explicit ForcedWidth(int w) { spice::ekv_lane_force_width(w); }
    ~ForcedWidth() { spice::ekv_lane_force_width(0); }
};

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(SimdDispatch, PickWidthPolicy) {
    const simd::Caps none;  // CPU without AVX2/FMA: must fall back cleanly
    EXPECT_EQ(simd::pick_width(none, simd::kMaxWidth), 1);
    EXPECT_EQ(simd::pick_width(none, 4), 1);

    simd::Caps avx2;
    avx2.avx2_fma = true;
    simd::Caps avx512 = avx2;
    avx512.avx512 = true;

    EXPECT_TRUE(simd::width_compiled(1));
    EXPECT_FALSE(simd::width_compiled(5));

    if (!simd::compiled_in()) {
        // Non-x86 (or no -mavx2) build: the tier is compiled out and every
        // dispatch resolves to the scalar kernel.
        EXPECT_EQ(simd::pick_width(avx512, simd::kMaxWidth), 1);
        EXPECT_FALSE(simd::width_compiled(4));
        EXPECT_FALSE(simd::width_compiled(8));
        EXPECT_EQ(spice::ekv_lane_width(), 1);
        return;
    }

    const int w4 = simd::width_compiled(4) ? 4 : 1;
    const int w8 = simd::width_compiled(8) ? 8 : w4;
    // Default dispatch takes the widest compiled width the CPU supports.
    EXPECT_EQ(simd::pick_width(avx2, simd::kMaxWidth), w4);
    EXPECT_EQ(simd::pick_width(avx512, simd::kMaxWidth), w8);
    // A smaller cap clamps down to CPU/build support.
    EXPECT_EQ(simd::pick_width(avx512, 4), w4);
    EXPECT_EQ(simd::pick_width(avx512, 1), 1);
    // Unsupported widths clamp down to the next available one, never up.
    EXPECT_EQ(simd::pick_width(avx512, 2), 1);
    EXPECT_EQ(simd::pick_width(avx512, 5), w4);
    EXPECT_EQ(simd::pick_width(avx512, 0), 1);

    // The test hook goes through the same clamp as default dispatch.
    EXPECT_EQ(spice::ekv_lane_width(),
              simd::pick_width(simd::cpu_caps(), simd::kMaxWidth));
    for (int w : {1, 2, 4, 5, 8}) {
        ForcedWidth guard(w);
        EXPECT_EQ(spice::ekv_lane_width(),
                  simd::pick_width(simd::cpu_caps(), w))
            << "forced width " << w;
    }
}

TEST(SimdLanes, LaneKernelBitIdenticalToScalarFastAcrossWidths) {
    BatchBench bench;
    const spice::MosfetBatch& batch =
        bench.circuit.workspace().mosfet_batch();
    std::mt19937 rng(20260808);
    std::vector<MosCurrent> fast(batch.size());
    std::vector<MosCurrent> lanes(batch.size());

    // ±18 V excursions are unphysical but drive the pure math through every
    // region: deep subthreshold down to flushed-to-zero F terms, the
    // vds = 0 seam, strong inversion, reversed drain/source.
    std::uniform_real_distribution<double> wide(-18.0, 18.0);

    auto check_x = [&](const std::vector<double>& x, int w) {
        batch.evaluate(x, fast.data(), /*fast=*/true);
        batch.evaluate_lanes(x, lanes.data());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(bits_of(lanes[i].ids), bits_of(fast[i].ids))
                << "ids device " << i << " width " << w << " lane "
                << lanes[i].ids << " scalar " << fast[i].ids;
            EXPECT_EQ(bits_of(lanes[i].gm), bits_of(fast[i].gm))
                << "gm device " << i << " width " << w;
            EXPECT_EQ(bits_of(lanes[i].gds), bits_of(fast[i].gds))
                << "gds device " << i << " width " << w;
            EXPECT_EQ(bits_of(lanes[i].gms), bits_of(fast[i].gms))
                << "gms device " << i << " width " << w;
            EXPECT_EQ(bits_of(lanes[i].gmb), bits_of(fast[i].gmb))
                << "gmb device " << i << " width " << w;
        }
    };

    for (int w : runnable_widths()) {
        ForcedWidth guard(w);
        ASSERT_EQ(spice::ekv_lane_width(), w);
        for (int trial = 0; trial < 60; ++trial) {
            std::vector<double> x = bench.random_x(rng);
            if (trial % 2 == 1)
                for (int n = 1; n < bench.n_nodes; ++n)
                    x[static_cast<std::size_t>(n)] = wide(rng);
            check_x(x, w);
        }
        // vds = 0 region seam on every device: all nodes at one potential.
        for (double v : {0.0, 0.6, 1.2}) {
            std::vector<double> x(
                static_cast<std::size_t>(bench.n_nodes) +
                    static_cast<std::size_t>(bench.circuit.branch_total()),
                0.0);
            for (int n = 1; n < bench.n_nodes; ++n)
                x[static_cast<std::size_t>(n)] = v;
            check_x(x, w);
        }
    }
}

// Parametrizable fixture for masked-remainder and gated-compaction tests:
// `n_mos` devices (any count, deliberately including non-multiples of the
// lane widths) over a handful of shared nodes.
struct SmallBatch {
    Circuit circuit;
    tech::Technology tech = tech::make_tech130();
    int n_nodes = 0;

    explicit SmallBatch(int n_mos) {
        const int vdd = circuit.node("vdd");
        circuit.add_vsource("VDD", vdd, Circuit::kGround,
                            SourceSpec::dc(tech.vdd));
        for (int k = 0; k < 4; ++k) {
            std::string n = "n";
            n += std::to_string(k);
            circuit.node(n);
        }
        std::mt19937 rng(11);
        std::uniform_int_distribution<int> pick(0, 5);
        std::uniform_real_distribution<double> wmul(0.5, 3.0);
        for (int k = 0; k < n_mos; ++k) {
            const bool nmos = k % 2 == 0;
            const auto& p = nmos ? tech.nmos : tech.pmos;
            const double w =
                (nmos ? tech.wn_unit : tech.wp_unit) * wmul(rng);
            std::string name = "M";
            name += std::to_string(k);
            circuit.add_mosfet(name, pick(rng), pick(rng), pick(rng),
                               nmos ? Circuit::kGround : vdd, p, w,
                               tech.lmin);
        }
        circuit.prepare();
        n_nodes = circuit.node_count();
    }

    std::vector<double> zeros() const {
        return std::vector<double>(
            static_cast<std::size_t>(n_nodes) +
                static_cast<std::size_t>(circuit.branch_total()),
            0.0);
    }
};

struct AssemblySnapshot {
    std::vector<double> vals;
    std::vector<double> rhs;
};

AssemblySnapshot assemble_snapshot(Circuit& c, const spice::SimContext& ctx) {
    spice::SolverWorkspace& ws = c.workspace();
    const spice::Stamper& st = ws.assemble(ctx);
    const auto vals = ws.csr_matrix().values();
    return {{vals.begin(), vals.end()}, st.rhs()};
}

void expect_snapshots_bitwise(const AssemblySnapshot& got,
                              const AssemblySnapshot& want, int w,
                              const char* stage) {
    ASSERT_EQ(got.vals.size(), want.vals.size());
    ASSERT_EQ(got.rhs.size(), want.rhs.size());
    for (std::size_t i = 0; i < got.vals.size(); ++i)
        EXPECT_EQ(bits_of(got.vals[i]), bits_of(want.vals[i]))
            << stage << " width " << w << " matrix slot " << i;
    for (std::size_t i = 0; i < got.rhs.size(); ++i)
        EXPECT_EQ(bits_of(got.rhs[i]), bits_of(want.rhs[i]))
            << stage << " width " << w << " rhs row " << i;
}

// Full assembly at every width for batch sizes that exercise the masked
// remainder lanes (non-multiples of 4 and 8, including sizes below one
// lane) must reproduce the scalar path bit for bit.
TEST(SimdLanes, MaskedRemainderLanesMatchScalarAssembly) {
    std::mt19937 rng(20260808);
    for (int n_mos : {1, 3, 5, 7, 9, 13}) {
        SmallBatch bench(n_mos);
        std::vector<double> x = bench.zeros();
        std::uniform_real_distribution<double> v(-0.4, bench.tech.vdd + 0.4);
        for (int n = 1; n < bench.n_nodes; ++n)
            x[static_cast<std::size_t>(n)] = v(rng);

        spice::SimContext ctx;
        ctx.mode = spice::SimContext::Mode::kDc;
        ctx.x = &x;

        AssemblySnapshot want;
        {
            ForcedWidth guard(1);
            want = assemble_snapshot(bench.circuit, ctx);
        }
        for (int w : runnable_widths()) {
            if (w == 1) continue;
            ForcedWidth guard(w);
            const AssemblySnapshot got =
                assemble_snapshot(bench.circuit, ctx);
            expect_snapshots_bitwise(got, want, w, "full batch");
        }
    }
}

// Delta-gated compaction: after a warm-up assembly fills the tangent cache,
// moving a subset of nodes leaves a partial active set (generally a
// non-multiple of the width). Every width must agree with the scalar gated
// path bit for bit at every step of the sequence — same matrix, same RHS,
// same cache evolution.
TEST(SimdLanes, GatedActiveSetCompactionMatchesScalar) {
    const std::vector<int> widths = runnable_widths();
    // One independently-built circuit per width so each runs the identical
    // cache-state sequence from scratch.
    for (int n_mos : {6, 11}) {
        std::vector<AssemblySnapshot> want;  // from the width-1 run
        for (int w : widths) {
            ForcedWidth guard(w);
            SmallBatch bench(n_mos);
            std::vector<double> x = bench.zeros();
            std::mt19937 rng(99);
            std::uniform_real_distribution<double> v(0.0, bench.tech.vdd);
            for (int n = 1; n < bench.n_nodes; ++n)
                x[static_cast<std::size_t>(n)] = v(rng);

            spice::SimContext ctx;
            ctx.mode = spice::SimContext::Mode::kDc;
            ctx.stale_dv = 0.05;
            ctx.run_id = 1;
            ctx.x = &x;

            std::vector<AssemblySnapshot> got;
            // Step 0: cold cache, everything active.
            got.push_back(assemble_snapshot(bench.circuit, ctx));
            // Step 1: unchanged voltages — empty active set (pure replay).
            got.push_back(assemble_snapshot(bench.circuit, ctx));
            // Steps 2..4: bump one more node each time — growing partial
            // active sets of awkward sizes.
            for (int step = 2; step <= 4; ++step) {
                x[static_cast<std::size_t>(step)] += 0.2;
                got.push_back(assemble_snapshot(bench.circuit, ctx));
            }
            // Step 5: sub-threshold nudge stays inside the gate.
            x[2] += 0.001;
            got.push_back(assemble_snapshot(bench.circuit, ctx));

            if (w == 1) {
                want = std::move(got);
                continue;
            }
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t s = 0; s < got.size(); ++s)
                expect_snapshots_bitwise(got[s], want[s], w, "gated step");
        }
    }
}

// Denormal drain currents: bias one device so F(vp - vs) lands in the
// denormal range; the lane kernel must reproduce the scalar bits exactly
// (and the value really is denormal, so the seam is actually exercised).
TEST(SimdLanes, DenormalDrainCurrentsBitIdentical) {
    // One NMOS with explicit terminals: gate and bulk at ground, source and
    // drain ramped far positive, so F(vp - ws) underflows gradually and the
    // drain current walks through the denormal range before hitting zero.
    Circuit c;
    tech::Technology t = tech::make_tech130();
    const int vdd = c.node("vdd");
    const int nd = c.node("nd");
    const int ns = c.node("ns");
    c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(t.vdd));
    c.add_mosfet("M0", nd, Circuit::kGround, ns, Circuit::kGround, t.nmos,
                 t.wn_unit, t.lmin);
    c.prepare();
    const spice::MosfetBatch& batch = c.workspace().mosfet_batch();
    ASSERT_EQ(batch.size(), 1u);
    std::vector<MosCurrent> fast(batch.size());
    std::vector<MosCurrent> lanes(batch.size());

    bool saw_denormal = false;
    // Walk the source potential through the band where sp^2 drops across
    // the normal/denormal boundary (arg = (vp - ws)/2Ut near -350..-372).
    for (double vs = 15.0; vs <= 20.0; vs += 0.02) {
        std::vector<double> x(
            static_cast<std::size_t>(c.node_count()) +
                static_cast<std::size_t>(c.branch_total()),
            0.0);
        x[static_cast<std::size_t>(vdd)] = t.vdd;
        x[static_cast<std::size_t>(ns)] = vs;
        x[static_cast<std::size_t>(nd)] = vs + 0.7;
        batch.evaluate(x, fast.data(), /*fast=*/true);
        for (int w : runnable_widths()) {
            ForcedWidth guard(w);
            batch.evaluate_lanes(x, lanes.data());
            EXPECT_EQ(bits_of(lanes[0].ids), bits_of(fast[0].ids))
                << "vs " << vs << " width " << w << " lane " << lanes[0].ids
                << " scalar " << fast[0].ids;
            EXPECT_EQ(bits_of(lanes[0].gm), bits_of(fast[0].gm))
                << "vs " << vs << " width " << w;
        }
        const double a = std::fabs(fast[0].ids);
        if (a > 0.0 && a < std::numeric_limits<double>::min())
            saw_denormal = true;
    }
    EXPECT_TRUE(saw_denormal)
        << "sweep never produced a denormal drain current; widen the range";
}

// Repeated assemblies with the default dispatch must be bitwise stable
// (the cross-thread-count bitwise guarantee is covered by
// Characterizer.ShortcutSweepBitwiseAcrossThreadCounts, which runs with
// the same default SIMD dispatch).
TEST(SimdLanes, RepeatedAssembliesBitwiseIdentical) {
    SmallBatch bench(9);
    std::vector<double> x = bench.zeros();
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> v(0.0, bench.tech.vdd);
    for (int n = 1; n < bench.n_nodes; ++n)
        x[static_cast<std::size_t>(n)] = v(rng);
    spice::SimContext ctx;
    ctx.mode = spice::SimContext::Mode::kDc;
    ctx.x = &x;

    const AssemblySnapshot first = assemble_snapshot(bench.circuit, ctx);
    for (int rep = 0; rep < 5; ++rep) {
        const AssemblySnapshot again =
            assemble_snapshot(bench.circuit, ctx);
        expect_snapshots_bitwise(again, first, spice::ekv_lane_width(),
                                 "repeat");
    }
}


// ---- capacitance lane kernel ---------------------------------------------

// The capacitance model as straight-line scalar code, written out
// independently of the lane kernel: the pre-kernel Mosfet::evaluate_caps,
// operation for operation. Default junction geometry (AD/AS = W*ldiff,
// PD/PS = 2(W+ldiff)), as every device in these fixtures has.
spice::MosCaps reference_caps(const Mosfet& m, double vd, double vg,
                              double vs, double vb) {
    const spice::MosParams& p = m.params();
    const double w = m.width();
    const double l = m.length();
    const double area = w * p.ldiff;
    const double perim = 2.0 * (w + p.ldiff);
    const double pol = p.type == spice::MosType::kNmos ? 1.0 : -1.0;
    const auto junction = [&](double vj) {
        const double fcpb = p.fc * p.pb;
        const auto grade = [](double x, double g) {
            return g == 0.5 ? std::sqrt(x) : std::pow(x, g);
        };
        const auto one = [&](double c0, double g) {
            if (c0 <= 0.0) return 0.0;
            if (vj < fcpb) return c0 / grade(1.0 - vj / p.pb, g);
            const double f = grade(1.0 - p.fc, g);
            return c0 / f * (1.0 + g * (vj - fcpb) / (p.pb * (1.0 - p.fc)));
        };
        return one(p.cj * area, p.mj) + one(p.cjsw * perim, p.mjsw);
    };
    const double wg = pol * (vg - vb);
    const double wd = pol * (vd - vb);
    const double ws = pol * (vs - vb);
    const double wgs = wg - ws;
    const double wgd = wg - wd;
    const double bw = p.blend_v;
    const SpSig side = softplus_logistic_fast((wgs - wgd) / bw);
    const double smax = bw * side.sp + wgd;
    const double smin = wgs + wgd - smax;
    const double vt_eff =
        p.vt0 + (p.n - 1.0) * std::max(0.0, std::min(ws, wd));
    const double sigma = softplus_logistic_fast((smax - vt_eff) / bw).sig;
    const double tau = softplus_logistic_fast((smin - vt_eff) / bw).sig;
    const double c_ch = p.cox * w * l;
    spice::MosCaps c;
    c.cgs = c_ch * (tau * 0.5 + (sigma - tau) * (2.0 / 3.0) * side.sig) +
            p.cgso * w;
    c.cgd = c_ch * (tau * 0.5 +
                    (sigma - tau) * (2.0 / 3.0) * (1.0 - side.sig)) +
            p.cgdo * w;
    c.cgb = c_ch * (1.0 - sigma) * p.cgb_frac + p.cgbo * l;
    c.cdb = junction(pol * (vb - vd));
    c.csb = junction(pol * (vb - vs));
    return c;
}

void expect_caps_bitwise(const spice::MosCaps& got,
                         const spice::MosCaps& want, const std::string& what) {
    EXPECT_EQ(bits_of(got.cgs), bits_of(want.cgs)) << "cgs " << what;
    EXPECT_EQ(bits_of(got.cgd), bits_of(want.cgd)) << "cgd " << what;
    EXPECT_EQ(bits_of(got.cgb), bits_of(want.cgb)) << "cgb " << what;
    EXPECT_EQ(bits_of(got.cdb), bits_of(want.cdb))
        << "cdb " << what << " got " << got.cdb << " want " << want.cdb;
    EXPECT_EQ(bits_of(got.csb), bits_of(want.csb))
        << "csb " << what << " got " << got.csb << " want " << want.csb;
}

// The bias cases of a MOS capacitance deck (NMOS/PMOS on, off and open at
// one terminal, sources tied to their bulk, junctions forward-biased at and
// beyond fc*pb) plus cards with swapped grading (mj = 0.4 takes pow,
// mjsw = 0.5 takes sqrt) and with no area or no sidewall junction. Every
// device has its own d/g/s nodes unless a terminal is tied, so `bias()`
// sets each case exactly. The first `n_mos` cases make the batch, so decks
// of any size exercise the masked remainder lanes.
struct CapDeck {
    static constexpr int kCases = 14;
    Circuit circuit;
    tech::Technology tech = tech::make_tech130();
    spice::MosParams nmos_graded, nmos_no_area, pmos_no_sidewall;
    std::vector<const Mosfet*> mosfets;
    std::vector<std::array<double, 4>> vdgsb;  // per device: vd vg vs vb
    int vdd = 0;

    explicit CapDeck(int n_mos) {
        nmos_graded = tech.nmos;
        nmos_graded.mj = 0.4;
        nmos_graded.mjsw = 0.5;
        nmos_no_area = tech.nmos;
        nmos_no_area.cj = 0.0;
        pmos_no_sidewall = tech.pmos;
        pmos_no_sidewall.cjsw = 0.0;

        const double v = tech.vdd;
        vdd = circuit.node("vdd");
        struct Case {
            bool nmos;
            const spice::MosParams* card;
            double vd, vg, vs;  // NaN vs: source tied to bulk
        };
        const double tied = std::numeric_limits<double>::quiet_NaN();
        const Case cases[kCases] = {
            {true, &tech.nmos, v, v, tied},             // on
            {true, &tech.nmos, v, 0.0, tied},           // off
            {true, &tech.nmos, 0.8, v, 0.37},           // source open
            {false, &tech.pmos, 0.0, 0.0, tied},        // on
            {false, &tech.pmos, 0.0, v, tied},          // off
            {false, &tech.pmos, 0.6, 0.0, 0.9},         // source open
            {true, &tech.nmos, -0.55, 0.6, 0.1},        // drain beyond fc*pb
            {true, &tech.nmos, 0.3, 0.2, -0.4},         // source at fc*pb
            {false, &tech.pmos, v + 0.6, v, 0.5},       // drain beyond fc*pb
            {true, &nmos_graded, 0.9, v, 0.2},          // mj 0.4, mjsw 0.5
            {true, &nmos_graded, 0.7, 0.0, tied},       // graded, tied
            {true, &nmos_no_area, 0.9, 0.5, 0.3},       // cj = 0
            {false, &pmos_no_sidewall, 0.2, 0.4, 1.0},  // cjsw = 0
            {true, &nmos_graded, -0.7, 0.3, 0.05},      // graded, forward
        };
        for (int k = 0; k < n_mos; ++k) {
            const Case& c = cases[k];
            const std::string id = std::to_string(k);
            const int bulk = c.nmos ? Circuit::kGround : vdd;
            const int d = circuit.node("d" + id);
            const int g = circuit.node("g" + id);
            const int s = std::isnan(c.vs) ? bulk : circuit.node("s" + id);
            const double w =
                (c.nmos ? tech.wn_unit : tech.wp_unit) * (1.0 + 0.25 * k);
            circuit.add_mosfet("M" + id, d, g, s, bulk, *c.card, w,
                               tech.lmin);
            const double vb = c.nmos ? 0.0 : v;
            vdgsb.push_back({c.vd, c.vg, std::isnan(c.vs) ? vb : c.vs, vb});
        }
        circuit.prepare();
        for (const auto& dev : circuit.devices())
            mosfets.push_back(dynamic_cast<const Mosfet*>(dev.get()));
    }

    // Node voltages realizing the deck's bias cases.
    std::vector<double> bias() const {
        std::vector<double> x(static_cast<std::size_t>(
                                  circuit.node_count() +
                                  circuit.branch_total()),
                              0.0);
        x[static_cast<std::size_t>(vdd)] = tech.vdd;
        for (std::size_t i = 0; i < mosfets.size(); ++i) {
            const Mosfet& m = *mosfets[i];
            x[static_cast<std::size_t>(m.drain())] = vdgsb[i][0];
            x[static_cast<std::size_t>(m.gate())] = vdgsb[i][1];
            x[static_cast<std::size_t>(m.source())] = vdgsb[i][2];
        }
        return x;
    }

    spice::MosCaps scalar_caps(std::size_t i,
                               const std::vector<double>& x) const {
        const Mosfet& m = *mosfets[i];
        return m.evaluate_caps(x[static_cast<std::size_t>(m.drain())],
                               x[static_cast<std::size_t>(m.gate())],
                               x[static_cast<std::size_t>(m.source())],
                               x[static_cast<std::size_t>(m.bulk())]);
    }
};

// Mosfet::evaluate_caps (the W=1 kernel) reproduces the straight-line
// scalar model bit for bit, and the batch's dispatched kernel reproduces
// evaluate_caps at every runnable width, on the deck's bias cases and on
// random biases, for decks of every size (masked remainder lanes).
TEST(CapLanes, KernelBitIdenticalToEvaluateCapsAcrossWidths) {
    std::mt19937 rng(20261019);
    std::uniform_real_distribution<double> wide(-0.8, 2.0);
    for (int n_mos : {1, 3, 5, 7, 9, 13, CapDeck::kCases}) {
        CapDeck deck(n_mos);
        const spice::MosfetBatch& batch =
            deck.circuit.workspace().mosfet_batch();
        ASSERT_EQ(batch.size(), static_cast<std::size_t>(n_mos));
        std::vector<spice::MosCaps> lanes(batch.size());

        auto check_x = [&](const std::vector<double>& x, const char* what) {
            for (std::size_t i = 0; i < batch.size(); ++i) {
                const Mosfet& m = *deck.mosfets[i];
                expect_caps_bitwise(
                    deck.scalar_caps(i, x),
                    reference_caps(m, x[static_cast<std::size_t>(m.drain())],
                                   x[static_cast<std::size_t>(m.gate())],
                                   x[static_cast<std::size_t>(m.source())],
                                   x[static_cast<std::size_t>(m.bulk())]),
                    std::string("evaluate_caps vs reference, ") + what +
                        " device " + std::to_string(i));
            }
            for (int w : runnable_widths()) {
                ForcedWidth guard(w);
                batch.evaluate_caps(x, lanes.data());
                for (std::size_t i = 0; i < batch.size(); ++i)
                    expect_caps_bitwise(
                        lanes[i], deck.scalar_caps(i, x),
                        std::string(what) + " width " + std::to_string(w) +
                            " device " + std::to_string(i) + " of " +
                            std::to_string(n_mos));
            }
        };

        check_x(deck.bias(), "deck bias");
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<double> x = deck.bias();
            for (int n = 1; n < deck.circuit.node_count(); ++n)
                x[static_cast<std::size_t>(n)] = wide(rng);
            check_x(x, "random bias");
        }
    }

    // The deck really reaches the branches it claims to.
    const CapDeck deck(CapDeck::kCases);
    const std::vector<double> x = deck.bias();
    const spice::MosParams& n = deck.tech.nmos;
    const spice::MosParams& p = deck.tech.pmos;
    const auto area = [&](int k, const spice::MosParams& card) {
        return deck.mosfets[static_cast<std::size_t>(k)]->width() *
               card.ldiff;
    };
    const auto perim = [&](int k, const spice::MosParams& card) {
        return 2.0 * (deck.mosfets[static_cast<std::size_t>(k)]->width() +
                      card.ldiff);
    };
    // Source tied to bulk: the zero-bias cap, no grading at all.
    EXPECT_EQ(deck.scalar_caps(0, x).csb,
              n.cj * area(0, n) + n.cjsw * perim(0, n));
    // Forward bias beyond fc*pb raises the junction cap.
    EXPECT_GT(deck.scalar_caps(6, x).cdb, deck.scalar_caps(0, x).cdb);
    // cj = 0 leaves the sidewall alone (pow for mjsw = 0.33); cjsw = 0
    // leaves the area alone (sqrt for mj = 0.5). Both reverse-biased.
    const double vj11 = 0.0 - 0.9;
    const double vj12 = -1.0 * (deck.tech.vdd - 1.0);
    EXPECT_EQ(deck.scalar_caps(11, x).cdb,
              n.cjsw * perim(11, n) / std::pow(1.0 - vj11 / n.pb, n.mjsw));
    EXPECT_EQ(deck.scalar_caps(12, x).csb,
              p.cj * area(12, p) / std::sqrt(1.0 - vj12 / p.pb));
}

// Delta-gated per-step cap refresh: after a first step evaluates every
// device, later steps re-evaluate only the devices a terminal of which
// moved more than stale_dv since their last evaluation, and a new run
// re-evaluates everything. The batch must match that model (built from
// Mosfet::evaluate_caps) at every width and step, count the split in
// solver.ws.cap_evals / cap_reused, and assemble the same bits at every
// width.
TEST(CapLanes, GatedActiveSetSequenceMatchesScalarModel) {
    constexpr double kTol = 0.05;
    std::vector<std::vector<AssemblySnapshot>> by_width;
    for (int w : runnable_widths()) {
        ForcedWidth guard(w);
        CapDeck deck(11);
        const spice::MosfetBatch& batch =
            deck.circuit.workspace().mosfet_batch();
        const std::size_t n_mos = batch.size();
        std::vector<double> x_prev = deck.bias();
        std::vector<double> x = x_prev;
        const std::vector<double> state(
            static_cast<std::size_t>(deck.circuit.state_total()), 0.0);

        spice::SimContext ctx;
        ctx.mode = spice::SimContext::Mode::kTran;
        ctx.dt = 1e-12;
        ctx.stale_dv = kTol;
        ctx.x = &x;
        ctx.x_prev = &x_prev;
        ctx.state = &state;

        // The gate model: per device, the voltages it was last evaluated
        // at and the caps from then.
        std::vector<std::array<double, 4>> at(
            n_mos, {std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0, 0.0});
        std::vector<spice::MosCaps> model(n_mos);
        std::vector<AssemblySnapshot> snaps;
        long long step_id = 1000;

        auto step = [&](long long run_id, const char* what) {
            ctx.run_id = run_id;
            ctx.step_id = ++step_id;
            std::size_t evals = 0;
            for (std::size_t i = 0; i < n_mos; ++i) {
                const Mosfet& m = *deck.mosfets[i];
                const std::array<double, 4> v = {
                    x_prev[static_cast<std::size_t>(m.drain())],
                    x_prev[static_cast<std::size_t>(m.gate())],
                    x_prev[static_cast<std::size_t>(m.source())],
                    x_prev[static_cast<std::size_t>(m.bulk())]};
                bool keep = true;
                for (int t = 0; t < 4; ++t)
                    keep = keep && std::fabs(v[t] - at[i][t]) <= kTol;
                if (keep) continue;
                ++evals;
                at[i] = v;
                model[i] = deck.scalar_caps(i, x_prev);
            }
            const long long evals0 =
                obs::counter("solver.ws.cap_evals").value();
            const long long reused0 =
                obs::counter("solver.ws.cap_reused").value();
            snaps.push_back(assemble_snapshot(deck.circuit, ctx));
            if (obs::compiled_in()) {
                EXPECT_EQ(obs::counter("solver.ws.cap_evals").value() - evals0,
                          static_cast<long long>(evals))
                    << what << " width " << w;
                EXPECT_EQ(
                    obs::counter("solver.ws.cap_reused").value() - reused0,
                    static_cast<long long>(n_mos - evals))
                    << what << " width " << w;
            }
            const std::vector<double>& c = batch.step_caps();
            for (std::size_t i = 0; i < n_mos; ++i)
                expect_caps_bitwise({c[i * 5 + 0], c[i * 5 + 1], c[i * 5 + 2],
                                     c[i * 5 + 3], c[i * 5 + 4]},
                                    model[i],
                                    std::string(what) + " width " +
                                        std::to_string(w) + " device " +
                                        std::to_string(i));
            return evals;
        };

        EXPECT_EQ(step(1, "cold"), n_mos);
        EXPECT_EQ(step(1, "unchanged"), 0u);
        // Bump one more node each step: growing partial active sets.
        for (const char* node : {"d2", "g5", "s7"}) {
            x_prev[static_cast<std::size_t>(deck.circuit.node_id(node))] +=
                0.2;
            EXPECT_GT(step(1, node), 0u);
        }
        // A shared node (the PMOS bulk rail) moves every PMOS at once.
        x_prev[static_cast<std::size_t>(deck.vdd)] -= 0.1;
        EXPECT_GT(step(1, "vdd"), 1u);
        // A nudge inside the gate keeps everything.
        x_prev[static_cast<std::size_t>(deck.circuit.node_id("d2"))] +=
            0.001;
        EXPECT_EQ(step(1, "nudge"), 0u);
        // A new run drops the cache: everything re-evaluates.
        for (auto& a : at) a[0] = std::numeric_limits<double>::quiet_NaN();
        EXPECT_EQ(step(2, "new run"), n_mos);
        by_width.push_back(std::move(snaps));
    }
    const std::vector<int> widths = runnable_widths();
    for (std::size_t k = 1; k < by_width.size(); ++k) {
        ASSERT_EQ(by_width[k].size(), by_width[0].size());
        for (std::size_t s = 0; s < by_width[k].size(); ++s)
            expect_snapshots_bitwise(by_width[k][s], by_width[0][s],
                                     widths[k], "gated cap step");
    }
}


// ---- pinned end-to-end results -------------------------------------------

// Results recorded before the capacitance model moved into the lane kernel
// (when it was scalar code called once per device per step): moving it
// must not change one bit of a transistor-level transient or of a
// characterized model, at any lane width. The characterization runs the
// delta-gated fast transient path, so the model pins cover the gated cap
// refresh too. The values depend on libm (pow, exp, log), so they are
// asserted only on the x86-64 glibc platform they were recorded on.
#if defined(__x86_64__) && defined(__GLIBC__)
constexpr bool kPinnedPlatform = true;
#else
constexpr bool kPinnedPlatform = false;
#endif

std::uint64_t fnv1a_bits(std::uint64_t h, double v) {
    const std::uint64_t b = bits_of(v);
    for (int i = 0; i < 8; ++i) {
        h ^= (b >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(Pinned, GoldenNor2Fo2TransientAtEveryWidth) {
    if (!kPinnedPlatform) GTEST_SKIP() << "pins recorded on x86-64 glibc";
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kFast10, t.vdd);
    spice::TranOptions topt;
    topt.tstop = 3.2e-9;
    topt.dt = 1e-12;
    // 0: default dispatch; widths the CPU lacks clamp down and must give
    // the same bits anyway.
    for (int w : {0, 1, 4, 8}) {
        ForcedWidth guard(w);
        engine::GoldenCell cell(lib, "NOR2", {{"A", stim.a}, {"B", stim.b}},
                                engine::LoadSpec{0.0, 2, "INV_X1"});
        const spice::TranResult r = cell.run(topt);
        std::uint64_t h = 1469598103934665603ull;
        for (double time : r.times()) h = fnv1a_bits(h, time);
        for (int n = 0; n < cell.circuit().node_count(); ++n) {
            const wave::Waveform wf = r.node_waveform(n);
            for (double v : wf.values()) h = fnv1a_bits(h, v);
        }
        EXPECT_EQ(h, 0xec74844d75095c12ull) << "forced width " << w;
        EXPECT_EQ(r.stats().newton_iters, 4745) << "forced width " << w;
        EXPECT_EQ(r.stats().steps_accepted, 3200) << "forced width " << w;
    }
}

TEST(Pinned, CharacterizedModelChecksums) {
    if (!kPinnedPlatform) GTEST_SKIP() << "pins recorded on x86-64 glibc";
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    const core::Characterizer chr(lib);
    core::CharOptions opt;
    opt.threads = 1;
    EXPECT_EQ(serve::model_checksum(chr.characterize(
                  "INV_X1", core::ModelKind::kSis, {"A"}, opt)),
              0x17e0ff21295713fcull);
    EXPECT_EQ(serve::model_checksum(chr.characterize(
                  "NOR2", core::ModelKind::kMcsm, {"A", "B"}, opt)),
              0x12069d3ea3787adfull);
    EXPECT_EQ(serve::model_checksum(chr.characterize(
                  "NAND2", core::ModelKind::kMcsm, {"A", "B"}, opt)),
              0xc7ef8536af44afb0ull);
}

}  // namespace
}  // namespace mcsm

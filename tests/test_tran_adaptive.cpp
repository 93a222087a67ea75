// Adaptive-transient fast-path tests:
//  * TranOptions validation rejects every malformed field with a
//    descriptive ModelError,
//  * LTE-adaptive stepping agrees with the fixed-grid baseline on golden
//    NOR2 scenarios (timing within the bench gate's tolerance) while
//    taking fewer steps,
//  * Jacobian reuse on the fixed grid tracks the plain Newton loop,
//  * adaptive + reuse + delta-gated device revalidation is bitwise
//    deterministic across thread counts (the run_id scoping contract),
//  * LinearBatch assembly matches the per-device virtual stamp path at
//    ulp scale on the same CSR storage,
//  * breakpoints landing within one ulp of an accepted step are consumed,
//    never double-stepped,
//  * rejected-step / refactor counters are exercised, and
//  * fixed-grid Newton failures bisect recursively, bit for bit, while the
//    record grid stays the dt grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cells/library.h"
#include "common/error.h"
#include "engine/scenarios.h"
#include "spice/circuit.h"
#include "spice/solver_workspace.h"
#include "spice/tran_solver.h"
#include "tech/tech130.h"
#include "wave/edges.h"
#include "wave/metrics.h"
#include "wave/waveform.h"

namespace mcsm {
namespace {

using spice::Circuit;
using spice::SourceSpec;
using spice::StepControl;
using spice::TranOptions;
using spice::TranResult;

// --- TranOptions validation ----------------------------------------------

TEST(TranOptionsValidation, AcceptsDefaultsAndFastConfig) {
    EXPECT_NO_THROW(spice::validate_tran_options(TranOptions{}));
    EXPECT_NO_THROW(spice::validate_tran_options(
        spice::fast_tran_options(2.5e-9, 2e-12)));
}

TEST(TranOptionsValidation, RejectsEachBadFieldWithModelError) {
    const auto expect_rejected = [](void (*mutate)(TranOptions&)) {
        TranOptions o;
        mutate(o);
        EXPECT_THROW(spice::validate_tran_options(o), ModelError);
    };
    expect_rejected([](TranOptions& o) { o.tstop = 0.0; });
    expect_rejected([](TranOptions& o) { o.tstop = -1e-9; });
    expect_rejected([](TranOptions& o) {
        o.tstop = std::numeric_limits<double>::quiet_NaN();
    });
    expect_rejected([](TranOptions& o) { o.dt = 0.0; });
    expect_rejected([](TranOptions& o) {
        o.dt = std::numeric_limits<double>::infinity();
    });
    expect_rejected([](TranOptions& o) { o.max_newton = 0; });
    expect_rejected([](TranOptions& o) { o.vtol = 0.0; });
    expect_rejected([](TranOptions& o) { o.max_update = -0.1; });
    expect_rejected([](TranOptions& o) { o.gmin = -1e-12; });
    expect_rejected([](TranOptions& o) { o.max_subdivisions = -1; });
    expect_rejected([](TranOptions& o) { o.dt_min = -1e-15; });
    expect_rejected([](TranOptions& o) {
        o.dt_min = 2e-12;
        o.dt_max = 1e-12;
    });
    expect_rejected([](TranOptions& o) { o.itol = 0.0; });
    expect_rejected([](TranOptions& o) { o.stale_dv = -1e-4; });
    // Adaptive-only constraints: a zero LTE budget or sub-1 growth factor
    // is meaningless; both are legal while the fixed grid ignores them.
    expect_rejected([](TranOptions& o) {
        o.step_control = StepControl::kAdaptiveLte;
        o.lte_rel = 0.0;
        o.lte_abs_v = 0.0;
    });
    expect_rejected([](TranOptions& o) {
        o.step_control = StepControl::kAdaptiveLte;
        o.grow_max = 0.5;
    });
    {
        TranOptions o;
        o.lte_rel = 0.0;
        o.lte_abs_v = 0.0;
        o.grow_max = 0.5;  // fixed grid: LTE knobs are inert
        EXPECT_NO_THROW(spice::validate_tran_options(o));
    }
}

// --- shared golden-scenario fixture --------------------------------------

std::vector<engine::ScenarioSpec> nor2_specs(const tech::Technology& t,
                                             int count) {
    std::vector<engine::ScenarioSpec> specs;
    for (int k = 0; k < count; ++k) {
        const engine::MisStimulus stim = engine::nor2_simultaneous_fall(
            t.vdd, 0.6e-9, 80e-12, static_cast<double>(k) * 20e-12);
        specs.push_back({"skew" + std::to_string(k),
                         "NOR2",
                         {{"A", stim.a}, {"B", stim.b}},
                         engine::LoadSpec{5e-15, 0, "INV_X1"}});
    }
    return specs;
}

double t50_rise(const wave::Waveform& w, double vdd) {
    const auto c = wave::crossing(w, vdd, 0.5, /*rising=*/true);
    EXPECT_TRUE(c.has_value());
    return c.has_value() ? *c : -1.0;
}

// --- adaptive vs fixed grid ----------------------------------------------

TEST(AdaptiveLte, MatchesFixedGridTimingWithFewerSteps) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    const auto specs = nor2_specs(t, 2);

    TranOptions fixed;
    fixed.tstop = 1.6e-9;
    fixed.dt = 2e-12;
    const TranOptions fast = spice::fast_tran_options(1.6e-9, 2e-12);

    const auto ref = engine::run_golden_scenarios(lib, specs, fixed, 1);
    const auto adapt = engine::run_golden_scenarios(lib, specs, fast, 1);
    ASSERT_EQ(ref.size(), specs.size());
    ASSERT_EQ(adapt.size(), specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const wave::Waveform wr =
            ref[i].result.node_waveform(ref[i].out_node);
        const wave::Waveform wa =
            adapt[i].result.node_waveform(adapt[i].out_node);

        // Both inputs fall -> the NOR2 output rises; gate the 50% crossing
        // and the 10-90 slew with the bench tolerance max(5%, 2 ps).
        const double t50_r = t50_rise(wr, t.vdd);
        const double t50_a = t50_rise(wa, t.vdd);
        EXPECT_LT(std::fabs(t50_a - t50_r), 2e-12)
            << "scenario " << specs[i].name;

        const auto slew_r = wave::slew_10_90(wr, t.vdd, /*rising=*/true);
        const auto slew_a = wave::slew_10_90(wa, t.vdd, /*rising=*/true);
        ASSERT_TRUE(slew_r.has_value() && slew_a.has_value());
        EXPECT_LT(std::fabs(*slew_a - *slew_r),
                  std::max(0.05 * *slew_r, 2e-12))
            << "scenario " << specs[i].name;

        // The whole point: adaptive accepts fewer steps than the fixed
        // grid's 800 while holding that accuracy.
        const auto& st = adapt[i].result.stats();
        EXPECT_GT(st.steps_accepted, 0);
        EXPECT_LT(st.steps_accepted,
                  static_cast<long long>(wr.size()));
    }
}

TEST(FixedGrid, JacobianReuseTracksPlainNewton) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    const auto specs = nor2_specs(t, 1);

    TranOptions plain;
    plain.tstop = 1.6e-9;
    plain.dt = 2e-12;
    TranOptions reuse = plain;
    reuse.reuse_jacobian = true;
    reuse.itol = 1e-9;

    const auto a = engine::run_golden_scenarios(lib, specs, plain, 1);
    const auto b = engine::run_golden_scenarios(lib, specs, reuse, 1);
    const wave::Waveform wa = a[0].result.node_waveform(a[0].out_node);
    const wave::Waveform wb = b[0].result.node_waveform(b[0].out_node);

    // Same record grid; the delta-form Newton accepts on its own residual,
    // so the waveforms agree far below device accuracy.
    ASSERT_EQ(wa.size(), wb.size());
    double max_dv = 0.0;
    for (std::size_t s = 0; s < wa.size(); ++s) {
        EXPECT_EQ(wa.time(s), wb.time(s));
        max_dv = std::max(max_dv, std::fabs(wa.value(s) - wb.value(s)));
    }
    EXPECT_LT(max_dv, 1e-5);

    const auto& st = b[0].result.stats();
    EXPECT_GT(st.jacobian_reuse_steps, 0);
    EXPECT_GT(st.lu_refactors, 0);
    EXPECT_LT(st.lu_refactors, st.steps_accepted);
}

TEST(AdaptiveLte, RejectionAndRefreshCountersExercised) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    // A sharp edge into a loaded NOR2 forces LTE rejections: the controller
    // must shrink into the edge and regrow after it.
    std::vector<engine::ScenarioSpec> specs;
    const engine::MisStimulus stim =
        engine::nor2_simultaneous_fall(t.vdd, 0.6e-9, 20e-12, 0.0);
    specs.push_back({"sharp",
                     "NOR2",
                     {{"A", stim.a}, {"B", stim.b}},
                     engine::LoadSpec{20e-15, 0, "INV_X1"}});

    const TranOptions fast = spice::fast_tran_options(1.6e-9, 2e-12);
    const auto out = engine::run_golden_scenarios(lib, specs, fast, 1);
    const auto& st = out[0].result.stats();
    EXPECT_GT(st.steps_accepted, 0);
    EXPECT_GT(st.steps_rejected, 0);
    EXPECT_GT(st.lu_refactors, 0);
    EXPECT_GT(st.jacobian_reuse_steps, 0);
    EXPECT_GE(st.newton_iters, st.steps_accepted);
    EXPECT_LE(st.jacobian_reuse_steps, st.steps_accepted);
}

// --- determinism across thread counts ------------------------------------

TEST(AdaptiveLte, BitDeterministicAcrossThreadCounts) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    const auto specs = nor2_specs(t, 6);

    // The full fast path: adaptive dt, frozen factorizations, and
    // delta-gated device revalidation. The pooled per-thread circuits are
    // reused across scenarios, so this pins the run_id scoping contract:
    // no linearization history may leak between scenarios.
    const TranOptions fast = spice::fast_tran_options(1.6e-9, 2e-12);

    const auto serial = engine::run_golden_scenarios(lib, specs, fast, 1);
    const auto parallel = engine::run_golden_scenarios(lib, specs, fast, 4);
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const wave::Waveform ws_ =
            serial[i].result.node_waveform(serial[i].out_node);
        const wave::Waveform wp =
            parallel[i].result.node_waveform(parallel[i].out_node);
        ASSERT_EQ(ws_.size(), wp.size()) << "scenario " << i;
        for (std::size_t s = 0; s < ws_.size(); ++s) {
            EXPECT_EQ(ws_.time(s), wp.time(s))
                << "scenario " << i << " sample " << s;
            EXPECT_EQ(ws_.value(s), wp.value(s))
                << "scenario " << i << " sample " << s;
        }
    }
}

// --- LinearBatch vs virtual stamps ---------------------------------------

int ulp_diff(double a, double b) {
    if (a == b) return 0;
    for (int k = 1; k <= 8; ++k) {
        a = std::nextafter(a, b);
        if (a == b) return k;
    }
    return 9;
}

// An RC/source-only circuit: every device lands in LinearBatch (V sources
// with dc and pwl specs, I source, resistor ladder, grounded and floating
// caps).
Circuit make_linear_circuit() {
    Circuit c;
    const int a = c.node("a");
    const int b = c.node("b");
    const int d = c.node("d");
    const int e = c.node("e");
    c.add_vsource("V1", a, Circuit::kGround, SourceSpec::dc(1.2));
    c.add_vsource("V2", e, Circuit::kGround,
                  SourceSpec::pwl(wave::piecewise_edges(
                      0.0, {{0.1e-9, 50e-12, 1.2}})));
    c.add_isource("I1", d, Circuit::kGround, SourceSpec::dc(1e-6));
    c.add_resistor("R1", a, b, 1e3);
    c.add_resistor("R2", b, d, 2e3);
    c.add_resistor("R3", d, e, 500.0);
    c.add_capacitor("C1", b, Circuit::kGround, 10e-15);
    c.add_capacitor("C2", d, Circuit::kGround, 5e-15);
    c.add_capacitor("C3", b, d, 2e-15);
    return c;
}

TEST(LinearBatch, MatchesVirtualStampAtUlpScale) {
    Circuit c = make_linear_circuit();
    c.prepare();
    spice::SolverWorkspace& ws = c.workspace();
    ASSERT_GT(ws.linear_batch().size(), 0u);

    const auto n_x = static_cast<std::size_t>(c.node_count()) +
                     static_cast<std::size_t>(c.branch_total());
    std::vector<double> x(n_x, 0.0);
    for (std::size_t i = 1; i < static_cast<std::size_t>(c.node_count()); ++i)
        x[i] = 0.1 * static_cast<double>(i);
    std::vector<double> x_prev = x;
    std::vector<double> state(static_cast<std::size_t>(c.state_total()), 0.0);
    for (std::size_t i = 0; i < state.size(); ++i)
        state[i] = 1e-7 * static_cast<double>(i + 1);

    for (const bool tran : {false, true}) {
        spice::SimContext ctx;
        ctx.mode = tran ? spice::SimContext::Mode::kTran
                        : spice::SimContext::Mode::kDc;
        ctx.time = 0.12e-9;  // inside V2's ramp, so the pwl eval matters
        ctx.dt = tran ? 1e-12 : 0.0;
        ctx.integrator = spice::Integrator::kTrapezoidal;
        ctx.x = &x;
        ctx.x_prev = &x_prev;
        ctx.state = &state;
        ctx.step_id = tran ? 990001 : -1;

        // Reference: the per-device virtual path into the same CSR storage.
        spice::Stamper& st = ws.begin_assembly();
        for (const auto& dev : c.devices()) dev->stamp(st, ctx);
        const auto ref_span = ws.csr_matrix().values();
        const std::vector<double> ref_vals(ref_span.begin(), ref_span.end());
        const std::vector<double> ref_rhs = st.rhs();

        // Batched assembly (fresh step_id per mode: no cache carryover).
        spice::Stamper& st2 = ws.assemble(ctx);
        const auto got_vals = ws.csr_matrix().values();
        const std::vector<double>& got_rhs = st2.rhs();

        ASSERT_EQ(ref_vals.size(), got_vals.size());
        for (std::size_t k = 0; k < ref_vals.size(); ++k)
            EXPECT_LE(ulp_diff(ref_vals[k], got_vals[k]), 2)
                << (tran ? "tran" : "dc") << " matrix slot " << k;
        ASSERT_EQ(ref_rhs.size(), got_rhs.size());
        for (std::size_t k = 0; k < ref_rhs.size(); ++k)
            EXPECT_LE(ulp_diff(ref_rhs[k], got_rhs[k]), 2)
                << (tran ? "tran" : "dc") << " rhs row " << k;
    }
}

// --- breakpoint handling --------------------------------------------------

TEST(Breakpoints, UlpCoincidentBreakpointsAreNotDoubleStepped) {
    const double t_bp = 0.4e-9;
    Circuit c;
    const int a = c.node("a");
    const int b = c.node("b");
    // Two sources whose corners differ by one ulp: the solver must treat
    // them as one breakpoint, and an accepted step landing on it must
    // consume it rather than re-stepping a zero-length interval.
    c.add_vsource("VA", a, Circuit::kGround,
                  SourceSpec::pwl(wave::piecewise_edges(
                      0.0, {{t_bp, 40e-12, 1.2}})));
    c.add_vsource("VB", b, Circuit::kGround,
                  SourceSpec::pwl(wave::piecewise_edges(
                      0.0, {{std::nextafter(t_bp, 1.0), 40e-12, 1.2}})));
    c.add_resistor("R1", a, b, 1e3);
    c.add_capacitor("C1", b, Circuit::kGround, 20e-15);

    const TranOptions fast = spice::fast_tran_options(1.0e-9, 2e-12);
    const TranResult res = spice::solve_tran(c, fast);
    const std::vector<double>& times = res.times();
    ASSERT_GT(times.size(), 2u);
    // Strictly increasing record times: a double-stepped breakpoint shows
    // up as a repeated (or reversed) time.
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_LT(times[i - 1], times[i]) << "sample " << i;
    // The breakpoint itself is visited at most once.
    int at_bp = 0;
    for (const double t : times)
        if (std::fabs(t - t_bp) <= 1e-21) ++at_bp;
    EXPECT_LE(at_bp, 1);
    // And the run reaches tstop.
    EXPECT_NEAR(times.back(), 1.0e-9, 1e-15);
}

// --- fixed-grid Newton-failure subdivision --------------------------------

// Output-node samples of the run below, one per grid point, captured from
// the recursive-bisection stepping loop: a failed interval splits into two
// halves tried at half its size, and the second half starts again at half
// the parent size. Any other retry order shifts the intermediate solutions
// and shows up in these bits.
constexpr double kSubdividedOut[31] = {
    0x1.b6cab22ef3c4bp-24, 0x1.b6cab2308e336p-24, 0x1.b6cab2308defap-24,
    0x1.b6cab23053116p-24, 0x1.b6cab22dce389p-24, 0x1.b6cab22bf93a4p-24,
    0x1.b6cab22fa2c1ap-24, 0x1.b6cab22dcdb86p-24, 0x1.b6cab22a21b59p-24,
    0x1.b6cab22dcafcep-24, 0x1.b6cab22bf6375p-24, 0x1.b6cab22dcafcep-24,
    0x1.b6cab22bf6375p-24, 0x1.b6cab22fda575p-24, 0x1.b6cab2304f414p-24,
    0x1.b6cab22ca53b8p-24, 0x1.ce4795b198cc8p-3,  0x1.a949b6cb24dd4p-1,
    0x1.17264641f418dp+0,  0x1.2b8e5677ab56p+0,   0x1.317fca9f2466p+0,
    0x1.32d303b041581p+0,  0x1.331e7730a1886p+0,  0x1.332e706bcd6e2p+0,
    0x1.33324698a91ddp+0,  0x1.3332e6356d797p+0,  0x1.33332bc0ed156p+0,
    0x1.3333253191e9cp+0,  0x1.3333316ee3fb9p+0,  0x1.33332b84d8cb9p+0,
    0x1.33332f9f5ee91p+0,
};

TEST(FixedGrid, NestedSubdivisionOnNewtonFailure) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    // A 10 ps edge on a 20 ps grid with a 3-iteration Newton budget: many
    // grid intervals fail outright, and some of their halves fail again.
    const engine::MisStimulus stim =
        engine::nor2_simultaneous_fall(t.vdd, 0.3e-9, 10e-12, 0.0);
    const auto run = [&](int max_subdivisions) {
        engine::GoldenCell cell(lib, "NOR2", {{"A", stim.a}, {"B", stim.b}},
                                engine::LoadSpec{5e-15, 0, "INV_X1"});
        TranOptions o;
        o.tstop = 0.6e-9;
        o.dt = 20e-12;
        o.max_newton = 3;
        o.max_subdivisions = max_subdivisions;
        const TranResult r = cell.run(o);
        return std::make_pair(r, r.node_waveform(cell.out_node()));
    };

    // One level of bisection is not enough: the failure nests.
    EXPECT_THROW(run(1), NumericalError);

    const auto [res, out] = run(10);
    const spice::TranStats& st = res.stats();
    EXPECT_GT(st.steps_rejected, 0);
    EXPECT_EQ(st.steps_rejected, 21);
    EXPECT_EQ(st.steps_accepted, 30 + st.steps_rejected);
    EXPECT_EQ(st.newton_iters, 178);

    // Subdivided sub-steps are not recorded: the record grid stays the dt
    // grid, each point computed as t0 + dt with t0 = k * dt.
    ASSERT_EQ(out.size(), 31u);
    EXPECT_EQ(out.time(0), 0.0);
    for (std::size_t i = 1; i < out.size(); ++i) {
        const double t0 = 20e-12 * static_cast<double>(i - 1);
        EXPECT_EQ(out.time(i), std::min(0.6e-9, t0 + 20e-12)) << "sample " << i;
    }
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out.value(i), kSubdividedOut[i]) << "sample " << i;
}

}  // namespace
}  // namespace mcsm

// Solver-core bench: times the persistent sparse workspace.
//
//  * Newton assembly+solve cycle (the transient hot loop) at cell and
//    flat-netlist scale,
//  * batched vs virtual device evaluation, SIMD vs scalar EKV kernel,
//    blocked vs per-RHS solves,
//  * full transient wall-clock on the same circuits, fixed grid vs the
//    adaptive fast path,
//  * the MCSM NOR2 FO2 transient against the transistor-level transient of
//    the same scenario (the paper's premise: the model must be faster; the
//    gate asks for 2x),
//  * characterization wall-clock, serial vs parallel,
//  * heap-allocation count of the steady-state Newton cycle (must be 0).
//
// Correctness and speed gates (adaptive accuracy, zero allocations, the
// batched/blocked/SIMD/adaptive wins, MCSM vs golden, obs overhead) drive
// the exit code. See bench_perf_speedup
// for the machine-readable BENCH_perf.json (it times the same stages
// through the shared bench_util helpers).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "core/model_scenarios.h"
#include "engine/scenarios.h"
#include "obs/metrics.h"
#include "spice/dc_solver.h"
#include "spice/ekv_lanes.h"
#include "spice/tran_solver.h"
#include "wave/metrics.h"

// Allocation instrumentation (see common/alloc_counter.h): counts every
// operator new in this binary.
#include "common/alloc_instrument.h"

using namespace mcsm;
using bench::Context;
using spice::Circuit;

int main() {
    Context& ctx = Context::get();
    bench::Checker check;

    std::printf("# solver core: persistent workspace + sparse LU "
                "(%zu threads)\n\n", hardware_threads());

    // --- Newton cycle ----------------------------------------------------
    std::printf("%-28s %10s\n", "stage", "time");
    for (int stages : {12, 48}) {
        const double s = bench::time_newton_cycle_us(ctx.lib(), stages);
        std::printf("newton_cycle_%-2d cells %6s %8.2fus\n", stages, "", s);
    }

    // --- batched vs scalar device evaluation -----------------------------
    std::printf("\n%-28s %10s %10s %9s\n", "stage", "scalar", "batched",
                "speedup");
    for (int stages : {12, 48}) {
        const double v = bench::time_device_eval_us(ctx.lib(), stages, false);
        const double b = bench::time_device_eval_us(ctx.lib(), stages, true);
        std::printf("device_eval_%-2d cells  %7s %8.2fus %8.2fus %8.2fx\n",
                    stages, "", v, b, v / b);
        if (stages == 48)
            check.check(b < v,
                        "batched SoA device evaluation beats the virtual "
                        "scalar loop");
    }

    // --- SIMD lane kernel vs scalar fast kernel --------------------------
    // Pure device-evaluation math on the 48-cell chain batch (no stamping):
    // the dispatched lane kernel against the scalar fast kernel it mirrors.
    // Gated at >=2x only when a vector width actually dispatched (the
    // scalar fallback trivially measures 1x); min-of-5 with remeasurement
    // keeps VM scheduler noise from failing the gate.
    {
        const int width = spice::ekv_lane_width();
        std::printf("\n%-28s %10s %10s %9s\n", "stage", "scalar", "simd",
                    "speedup");
        double sc = 0.0;
        double ln = 0.0;
        bool ok = false;
        for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
            sc = 1e300;
            ln = 1e300;
            for (int r = 0; r < 5; ++r) {
                sc = std::min(sc,
                              bench::time_ekv_kernel_us(ctx.lib(), 48, false));
                ln = std::min(ln,
                              bench::time_ekv_kernel_us(ctx.lib(), 48, true));
            }
            ok = width < 4 || ln * 2.0 <= sc;
        }
        std::printf("ekv_kernel_48 cells w=%d %4s %8.2fus %8.2fus %8.2fx  "
                    "(%s)\n",
                    width, "", sc, ln, sc / ln,
                    spice::ekv_lane_kernel_name());
        if (width >= 4)
            check.check(ok,
                        "vectorized full-batch EKV kernel >=2x the scalar "
                        "fast kernel (measured " + std::to_string(sc / ln) +
                            "x at width " + std::to_string(width) + ")");
        else
            std::printf("ekv_kernel gate skipped: scalar dispatch (width "
                        "%d)\n", width);
    }

    // --- multi-RHS vs single-RHS solves ----------------------------------
    std::printf("\n%-28s %10s %10s %9s\n", "stage", "single", "blocked",
                "speedup");
    for (std::size_t nrhs : {8u, 32u}) {
        const double one =
            bench::time_multi_rhs_us(ctx.lib(), 12, nrhs, false);
        const double blk = bench::time_multi_rhs_us(ctx.lib(), 12, nrhs, true);
        std::printf("multi_rhs_%-2zu 12 cells %6s %8.2fus %8.2fus %8.2fx\n",
                    nrhs, "", one, blk, one / blk);
        if (nrhs == 32)
            check.check(blk < one,
                        "blocked multi-RHS solve beats per-RHS refactor+solve");
    }

    // --- blocked DC bias sweep and fixed-grid transients -----------------
    std::printf("\n%-28s %10s\n", "stage", "time");
    std::printf("dc_sweep_nor2 1296pt        %8.1fms\n",
                bench::time_dc_sweep_ms(ctx.lib()));
    wave::Waveform w_fixed;
    double fixed_48_ms = 0.0;
    for (int stages : {12, 48}) {
        const double s =
            bench::time_chain_transient_ms(ctx.lib(), stages, &w_fixed);
        if (stages == 48) fixed_48_ms = s;
        std::printf("transient_%-2d cells    %8s %8.1fms\n", stages, "", s);
    }

    // --- adaptive transient fast path ------------------------------------
    // LTE-adaptive stepping + Jacobian reuse vs the fixed grid on the
    // 48-cell chain; correctness is the far-end 50% crossing time, not
    // a pointwise voltage delta (edges amplify a few-fs time shift into
    // tens of mV).
    {
        const double vdd = ctx.vdd();
        wave::Waveform w_adapt;
        double reuse_rate = 0.0;
        const double no_reuse = bench::time_chain_transient_fast_ms(
            ctx.lib(), 48, /*reuse_jacobian=*/false);
        const double fast = bench::time_chain_transient_fast_ms(
            ctx.lib(), 48, /*reuse_jacobian=*/true, &reuse_rate, &w_adapt);
        std::printf("\n%-28s %10s %10s %9s\n", "stage", "fixed", "adaptive",
                    "speedup");
        std::printf("transient_adaptive_48 cells %8.1fms %8.1fms %8.2fx  "
                    "(no-reuse %.1fms, reuse rate %.0f%%)\n",
                    fixed_48_ms, fast, fixed_48_ms / fast,
                    no_reuse, 100.0 * reuse_rate);
        check.check(fast < fixed_48_ms,
                    "adaptive+reuse transient beats the fixed grid");
        // The tuned fast path prefers a fresh factorization while the LTE
        // controller is actively resizing steps (refactors are cheap at
        // this matrix size) and freezes the LU on settled stretches, so
        // the reuse rate is a floor, not a target.
        check.check(reuse_rate > 0.15,
                    "Jacobian reuse engages on settled stretches (rate " +
                        std::to_string(reuse_rate) + ")");
        // The 48-cell far end rides the chain's last rising edge.
        const auto t50_fixed = wave::crossing(w_fixed, vdd, 0.5, true);
        const auto t50_adapt = wave::crossing(w_adapt, vdd, 0.5, true);
        check.check(t50_fixed.has_value() && t50_adapt.has_value(),
                    "both far-end waveforms cross 50%");
        if (t50_fixed && t50_adapt) {
            const double dt50 = std::fabs(*t50_adapt - *t50_fixed);
            const double budget = std::max(0.01 * *t50_fixed, 2e-12);
            check.check(dt50 < budget,
                        "adaptive far-end 50% crossing within max(1%, 2 ps) "
                        "of the fixed grid (delta " +
                            std::to_string(dt50 * 1e12) + " ps)");
        }
    }

    // --- MCSM vs transistor level ----------------------------------------
    // The paper's premise: a cell's current-source model simulates faster
    // than the transistor-level netlist it replaces. The default transient
    // path (tstop 3.2 ns, dt 1 ps) on the NOR2 FO2 history scenario, MCSM
    // ModelCell against GoldenCell, each run building its own circuit. The
    // gate asks for 2x. 10 of 10 runs on a shared 4-core host measured
    // 2.0-2.6x (median 2.5x); the ratio was about 3.4x before the MOSFET
    // capacitances moved into the SIMD lanes made the golden side faster.
    // Measured in interleaved pairs, min-of-5 per side, and two
    // remeasurements before a noisy verdict may fail.
    {
        const engine::HistoryStimulus stim =
            engine::nor2_history(engine::HistoryCase::kFast10, ctx.vdd());
        const core::CsmModel& nor = ctx.nor_mcsm();
        const core::CsmModel& inv = ctx.inv_sis();
        spice::TranOptions topt;
        topt.tstop = 3.2e-9;
        topt.dt = 1e-12;
        // Newton iterations per run (deterministic, so the last run's).
        long long g_newton = 0;
        long long m_newton = 0;
        auto golden_ms = [&] {
            return bench::time_reps_ms(1, [&] {
                       engine::GoldenCell cell(
                           ctx.lib(), "NOR2", {{"A", stim.a}, {"B", stim.b}},
                           engine::LoadSpec{0.0, 2, "INV_X1"});
                       g_newton = cell.run(topt).stats().newton_iters;
                   }).min_ms;
        };
        auto mcsm_ms = [&] {
            return bench::time_reps_ms(1, [&] {
                       core::ModelLoadSpec load;
                       load.fanout_count = 2;
                       load.receiver = &inv;
                       core::ModelCell cell(
                           nor, {{"A", stim.a}, {"B", stim.b}}, load);
                       m_newton = cell.run(topt).stats().newton_iters;
                   }).min_ms;
        };
        (void)golden_ms();  // warm both paths
        (void)mcsm_ms();
        double g_ms = 0.0;
        double m_ms = 0.0;
        bool ok = false;
        for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
            g_ms = 1e300;
            m_ms = 1e300;
            for (int r = 0; r < 5; ++r) {
                g_ms = std::min(g_ms, golden_ms());
                m_ms = std::min(m_ms, mcsm_ms());
            }
            ok = 2.0 * m_ms < g_ms;
        }
        std::printf("\n%-28s %10s %10s %9s\n", "stage", "golden", "mcsm",
                    "speedup");
        std::printf("transient_nor2_fo2 history  %8.2fms %8.2fms %8.2fx\n",
                    g_ms, m_ms, g_ms / m_ms);
        // Per Newton iteration: the whole run's wall-clock over its linear
        // solves, so step control and recording are spread over them too.
        std::printf("  us per newton iteration   %8.3fus %8.3fus %8.2fx"
                    "  (%lld vs %lld iterations)\n",
                    1e3 * g_ms / static_cast<double>(g_newton),
                    1e3 * m_ms / static_cast<double>(m_newton),
                    (g_ms / static_cast<double>(g_newton)) /
                        (m_ms / static_cast<double>(m_newton)),
                    g_newton, m_newton);
        check.check(ok,
                    "MCSM NOR2 FO2 transient at least 2x faster than the "
                    "transistor-level transient of the same scenario "
                    "(measured " +
                        std::to_string(g_ms / m_ms) + "x)");
    }

    // --- characterization ------------------------------------------------
    {
        core::CharOptions serial = ctx.char_options(7);
        serial.transient_caps = false;
        serial.threads = 1;
        core::CharOptions parallel = serial;
        parallel.threads = 0;

        const double d = bench::time_characterize_nor2_ms(ctx.lib(), serial);
        const double s =
            bench::time_characterize_nor2_ms(ctx.lib(), parallel);
        std::printf("\n%-28s %10s %10s %9s\n", "stage", "serial",
                    "parallel", "speedup");
        std::printf("characterize NOR2 MCSM g7   %8.1fms %8.1fms %8.2fx\n",
                    d, s, d / s);
    }

    // --- zero-allocation guarantee ---------------------------------------
    {
        Circuit c = bench::make_chain_circuit(ctx.lib(), 12);
        const spice::DcResult op = spice::solve_dc(c);
        spice::SolverWorkspace& ws = c.workspace();
        spice::SimContext sctx;
        sctx.mode = spice::SimContext::Mode::kDc;
        sctx.x = &op.x;
        // The batched evaluate-and-stamp entry point the solvers use, plus
        // a blocked multi-RHS solve on the same factorization.
        const std::size_t n = ws.system_size();
        std::vector<double> b_block(n * 8, 1e-9);
        std::vector<double> x_block(n * 8);
        auto cycle = [&] {
            spice::Stamper& st = ws.assemble(sctx);
            st.add_gmin_everywhere(1e-12);
            (void)ws.solve();
            ws.solve_block(b_block.data(), x_block.data(), 8);
        };
        cycle();  // warm
        const std::size_t before = AllocCounter::count();
        for (int r = 0; r < 200; ++r) cycle();
        const std::size_t allocs = AllocCounter::count() - before;
        std::printf("\nnewton cycle heap allocations after prepare(): %zu\n",
                    allocs);
        check.check(allocs == 0,
                    "batched Newton assembly+solve and multi-RHS cycle is "
                    "allocation-free");
    }

    // --- observability overhead ------------------------------------------
    // The Newton cycle runs through SolverWorkspace::assemble()/solve(),
    // which carry the obs hooks (a relaxed counter add per call plus the
    // disabled-DetailSpan check). A/B with the runtime kill switch on the
    // identical binary; the <2% bound is the tentpole's overhead budget.
    // The gate reads the median of the per-trial (on / off) ratios over
    // interleaved trials, so a load burst (e.g. a parallel ctest run) hits
    // both sides of a trial alike and one outlier trial cannot decide it.
    // Both sides time one circuit instance (a fresh build per call would
    // add its own memory-layout spread); within a trial they alternate
    // call by call, the side that goes first flips every trial, and each
    // side keeps its fastest call.
    if (obs::compiled_in()) {
        Circuit chain = bench::make_chain_circuit(ctx.lib(), 48);
        const spice::DcResult op = spice::solve_dc(chain);
        auto cycle_us = [&](bool enabled) {
            obs::set_enabled(enabled);
            return bench::time_newton_cycle_us(chain, op.x);
        };
        (void)cycle_us(true);  // warm caches and counter registry
        constexpr std::size_t kTrials = 9;
        constexpr int kCallsPerSide = 3;
        std::vector<double> off_trials;
        std::vector<double> on_trials;
        std::vector<double> ratio_trials;
        for (std::size_t t = 0; t < kTrials; ++t) {
            double off = 1e300;
            double on = 1e300;
            for (int c = 0; c < kCallsPerSide; ++c) {
                for (const bool enabled : {t % 2 == 1, t % 2 == 0}) {
                    double& side = enabled ? on : off;
                    side = std::min(side, cycle_us(enabled));
                }
            }
            off_trials.push_back(off);
            on_trials.push_back(on);
            ratio_trials.push_back(on / off);
        }
        obs::set_enabled(true);
        const auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v[v.size() / 2];
        };
        const double overhead = median(ratio_trials) - 1.0;
        std::printf("\nobs overhead newton_cycle_48: off %.2fus on %.2fus "
                    "(median of %zu interleaved trials: %+.2f%%)\n",
                    median(off_trials), median(on_trials), kTrials,
                    100.0 * overhead);
        std::printf("  per trial (off/on us, overhead):");
        for (std::size_t t = 0; t < kTrials; ++t)
            std::printf(" %.2f/%.2f %+.1f%%", off_trials[t], on_trials[t],
                        100.0 * (ratio_trials[t] - 1.0));
        std::printf("\n");
        check.check(overhead <= 0.02,
                    "metrics overhead < 2% on the newton cycle (median of " +
                        std::to_string(kTrials) + " interleaved trials: " +
                        std::to_string(100.0 * overhead) + "%)");
    } else {
        std::printf("\nobs overhead newton_cycle_48: skipped "
                    "(MCSM_OBS=OFF, hooks compiled out)\n");
    }

    return check.exit_code();
}

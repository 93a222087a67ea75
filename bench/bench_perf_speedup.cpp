// Perf bench A4 (google-benchmark): runtime of the MCSM model transient vs
// the transistor-level golden transient on the same scenario - the whole
// point of CSMs in an STA/noise tool - plus characterization and query
// micro-benchmarks.
//
// Before the google-benchmark suite runs, a fixed stage list is wall-clock
// timed (stages with a comparand also time their baseline configuration)
// and written as machine-readable BENCH_perf.json ({"threads": N,
// "stages": {"<name>": {"current_ms", optionally "baseline_ms" and
// "speedup"}, ...}}) for CI trend tracking; set MCSM_BENCH_JSON to change
// the path, or =0 to skip.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "core/characterizer.h"
#include "core/explicit_sim.h"
#include "core/model_scenarios.h"
#include "engine/scenarios.h"
#include "spice/ekv_lanes.h"
#include "spice/tran_solver.h"

using namespace mcsm;
using bench::Context;

namespace {

spice::TranOptions tran_options() {
    spice::TranOptions topt;
    topt.tstop = 3.2e-9;
    topt.dt = 1e-12;
    return topt;
}

void BM_GoldenTransient(benchmark::State& state) {
    Context& ctx = Context::get();
    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kFast10, ctx.vdd());
    for (auto _ : state) {
        engine::GoldenCell cell(ctx.lib(), "NOR2",
                                {{"A", stim.a}, {"B", stim.b}},
                                engine::LoadSpec{0.0, 2, "INV_X1"});
        benchmark::DoNotOptimize(cell.run(tran_options()));
    }
}
BENCHMARK(BM_GoldenTransient)->Unit(benchmark::kMillisecond);

void BM_McsmTransientImplicit(benchmark::State& state) {
    Context& ctx = Context::get();
    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kFast10, ctx.vdd());
    const core::CsmModel& nor = ctx.nor_mcsm();
    const core::CsmModel& inv = ctx.inv_sis();
    for (auto _ : state) {
        core::ModelLoadSpec load;
        load.fanout_count = 2;
        load.receiver = &inv;
        core::ModelCell cell(nor, {{"A", stim.a}, {"B", stim.b}}, load);
        benchmark::DoNotOptimize(cell.run(tran_options()));
    }
}
BENCHMARK(BM_McsmTransientImplicit)->Unit(benchmark::kMillisecond);

void BM_McsmTransientExplicit(benchmark::State& state) {
    Context& ctx = Context::get();
    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kFast10, ctx.vdd());
    const core::CsmModel& nor = ctx.nor_mcsm();
    core::ExplicitOptions eopt;
    eopt.tstop = 3.2e-9;
    eopt.dt = 1e-12;
    eopt.load_cap = 7e-15;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::simulate_explicit(nor, {stim.a, stim.b}, eopt));
    }
}
BENCHMARK(BM_McsmTransientExplicit)->Unit(benchmark::kMillisecond);

void BM_CharacterizeNor2McsmShortcut(benchmark::State& state) {
    Context& ctx = Context::get();
    const core::Characterizer chr(ctx.lib());
    core::CharOptions opt;
    opt.grid_points = static_cast<std::size_t>(state.range(0));
    opt.transient_caps = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chr.characterize(
            "NOR2", core::ModelKind::kMcsm, {"A", "B"}, opt));
    }
}
BENCHMARK(BM_CharacterizeNor2McsmShortcut)->Arg(7)->Arg(11)
    ->Unit(benchmark::kMillisecond);

void BM_LutQuery4D(benchmark::State& state) {
    Context& ctx = Context::get();
    const core::CsmModel& nor = ctx.nor_mcsm();
    double x = 0.0;
    for (auto _ : state) {
        x += 1e-4;
        if (x > 1.0) x = 0.0;
        const std::array<double, 4> q{x, 1.2 - x, 0.6 + 0.3 * x, x};
        benchmark::DoNotOptimize(nor.io(q));
    }
}
BENCHMARK(BM_LutQuery4D);

void BM_LutQuery4DWithGradient(benchmark::State& state) {
    Context& ctx = Context::get();
    const core::CsmModel& nor = ctx.nor_mcsm();
    double x = 0.0;
    std::array<double, 4> grad{};
    for (auto _ : state) {
        x += 1e-4;
        if (x > 1.0) x = 0.0;
        const std::array<double, 4> q{x, 1.2 - x, 0.6 + 0.3 * x, x};
        benchmark::DoNotOptimize(nor.i_out.at_with_gradient(q, grad));
    }
}
BENCHMARK(BM_LutQuery4DWithGradient);

void BM_ModelDcState(benchmark::State& state) {
    Context& ctx = Context::get();
    const core::CsmModel& nor = ctx.nor_mcsm();
    for (auto _ : state) {
        const std::array<double, 2> pins{0.0, 0.0};
        benchmark::DoNotOptimize(nor.dc_state(pins));
    }
}
BENCHMARK(BM_ModelDcState)->Unit(benchmark::kMicrosecond);

// --- BENCH_perf.json: per-stage wall clock -------------------------------

// One timed stage. Stages with a comparand also carry a "baseline": the
// virtual per-device loop vs the batched assembly, per-RHS vs blocked
// solves, serial vs parallel characterization, and the fixed grid vs the
// adaptive fast path. The measurements themselves live in bench_util so
// bench_solver_core's report and this JSON stay in lockstep.
//
// Every stage reports min-of-N (the gate/headline number, robust to
// scheduler noise) and mean-of-N (the spread indicator). Micro-stages
// whose timer already returns a per-op average over thousands of reps
// report that average for both.
struct Stage {
    std::string name;
    std::optional<bench::BenchTiming> baseline;
    bench::BenchTiming current;
};

bench::BenchTiming avg_as_timing(double ms) {
    bench::BenchTiming t;
    t.min_ms = ms;
    t.mean_ms = ms;
    t.reps = 1;
    return t;
}

bench::BenchTiming newton_cycle_ms(Context& ctx, int stages) {
    return avg_as_timing(bench::time_newton_cycle_us(ctx.lib(), stages) *
                         1e-3);
}

bench::BenchTiming golden_transient_ms(Context& ctx, int stages) {
    bench::BenchTiming t;
    bench::time_chain_transient_ms(ctx.lib(), stages, nullptr, &t);
    return t;
}

bench::BenchTiming dc_sweep_ms(Context& ctx) {
    bench::BenchTiming t;
    bench::time_dc_sweep_ms(ctx.lib(), &t);
    return t;
}

bench::BenchTiming characterize_ms(Context& ctx, std::size_t threads) {
    core::CharOptions opt = ctx.char_options(7);
    opt.transient_caps = false;
    opt.threads = threads;
    bench::BenchTiming t;
    bench::time_characterize_nor2_ms(ctx.lib(), opt, &t);
    return t;
}

void write_bench_perf_json() {
    const char* path_env = std::getenv("MCSM_BENCH_JSON");
    const std::string path =
        path_env == nullptr ? "BENCH_perf.json" : path_env;
    if (path == "0") return;

    Context& ctx = Context::get();
    std::vector<Stage> stages;
    stages.push_back({"newton_cycle_12cell", std::nullopt,
                      newton_cycle_ms(ctx, 12)});
    stages.push_back({"newton_cycle_48cell", std::nullopt,
                      newton_cycle_ms(ctx, 48)});
    // Device-evaluation pass alone (assembly, no solve): the virtual
    // per-device scalar loop vs the batched SoA evaluate-and-stamp, both
    // writing the same CSR workspace.
    stages.push_back(
        {"device_eval_12cell",
         avg_as_timing(bench::time_device_eval_us(ctx.lib(), 12, false) *
                       1e-3),
         avg_as_timing(bench::time_device_eval_us(ctx.lib(), 12, true) *
                       1e-3)});
    stages.push_back(
        {"device_eval_48cell",
         avg_as_timing(bench::time_device_eval_us(ctx.lib(), 48, false) *
                       1e-3),
         avg_as_timing(bench::time_device_eval_us(ctx.lib(), 48, true) *
                       1e-3)});
    // 32 solutions of the factored chain system: per-solution refactor +
    // single-RHS solve (the point-by-point Newton pattern) vs one refactor
    // + one blocked multi-RHS substitution.
    stages.push_back(
        {"multi_rhs_32_12cell",
         avg_as_timing(bench::time_multi_rhs_us(ctx.lib(), 12, 32, false) *
                       1e-3),
         avg_as_timing(bench::time_multi_rhs_us(ctx.lib(), 12, 32, true) *
                       1e-3)});
    // Characterization-style DC bias sweep (all modeled nodes forced,
    // 6^4 grid) through the blocked sweep solver.
    stages.push_back({"dc_sweep_nor2_1296pt", std::nullopt, dc_sweep_ms(ctx)});
    const bench::BenchTiming fixed_48 = golden_transient_ms(ctx, 48);
    stages.push_back(
        {"transient_12cell", std::nullopt, golden_transient_ms(ctx, 12)});
    stages.push_back({"transient_48cell", std::nullopt, fixed_48});
    stages.push_back({"characterize_nor2_mcsm_g7", characterize_ms(ctx, 1),
                      characterize_ms(ctx, 0)});
    // Transient fast path: the fixed grid vs LTE-adaptive stepping +
    // Jacobian reuse.
    double reuse_rate = 0.0;
    bench::BenchTiming adaptive;
    bench::time_chain_transient_fast_ms(ctx.lib(), 48,
                                        /*reuse_jacobian=*/true, &reuse_rate,
                                        nullptr, &adaptive);
    stages.push_back({"transient_adaptive_48", fixed_48, adaptive});

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_perf_speedup: cannot write %s\n",
                     path.c_str());
        return;
    }
    // baseline_ms/current_ms stay min-of-N (the numbers the CI trend and
    // speedup gates key on); the *_mean_ms companions expose run-to-run
    // spread without moving the gate. Stages without a comparand carry the
    // current_* fields only.
    std::fprintf(f, "{\n  \"threads\": %zu,\n  \"stages\": {\n",
                 hardware_threads());
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const Stage& s = stages[i];
        std::fprintf(f, "    \"%s\": {", s.name.c_str());
        if (s.baseline)
            std::fprintf(f, "\"baseline_ms\": %.4f, \"baseline_mean_ms\": %.4f, ",
                         s.baseline->min_ms, s.baseline->mean_ms);
        std::fprintf(f, "\"current_ms\": %.4f, \"current_mean_ms\": %.4f",
                     s.current.min_ms, s.current.mean_ms);
        if (s.baseline)
            std::fprintf(f, ", \"speedup\": %.3f",
                         s.baseline->min_ms / s.current.min_ms);
        std::fprintf(f, "}%s\n", i + 1 < stages.size() ? "," : "");
    }
    // SIMD lane-kernel block: pure full-batch EKV evaluation on the 48-cell
    // chain, scalar fast kernel vs the dispatched lane kernel (best-of-5;
    // at scalar dispatch both sides run the same code and speedup ~1).
    double simd_scalar_us = 1e300;
    double simd_lanes_us = 1e300;
    for (int r = 0; r < 5; ++r) {
        simd_scalar_us = std::min(
            simd_scalar_us, bench::time_ekv_kernel_us(ctx.lib(), 48, false));
        simd_lanes_us = std::min(
            simd_lanes_us, bench::time_ekv_kernel_us(ctx.lib(), 48, true));
    }
    std::fprintf(f,
                 "  },\n  \"simd\": {\"width\": %d, \"kernel\": \"%s\", "
                 "\"scalar_kernel_ms\": %.5f, \"lane_kernel_ms\": %.5f, "
                 "\"speedup\": %.3f},\n",
                 spice::ekv_lane_width(), spice::ekv_lane_kernel_name(),
                 simd_scalar_us * 1e-3, simd_lanes_us * 1e-3,
                 simd_scalar_us / simd_lanes_us);
    std::fprintf(f, "  \"jacobian_reuse_rate\": %.4f\n}\n", reuse_rate);
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
    for (const Stage& s : stages) {
        if (s.baseline)
            std::printf("#   %-28s baseline %8.3f ms   current %8.3f ms   "
                        "speedup %5.2fx   (means %8.3f / %8.3f)\n",
                        s.name.c_str(), s.baseline->min_ms, s.current.min_ms,
                        s.baseline->min_ms / s.current.min_ms,
                        s.baseline->mean_ms, s.current.mean_ms);
        else
            std::printf("#   %-28s current %8.3f ms   (mean %8.3f)\n",
                        s.name.c_str(), s.current.min_ms, s.current.mean_ms);
    }
    std::printf("#   simd ekv_kernel_48 w=%d (%s)  scalar %8.3f ms   lanes "
                "%8.3f ms   speedup %5.2fx\n",
                spice::ekv_lane_width(), spice::ekv_lane_kernel_name(),
                simd_scalar_us * 1e-3, simd_lanes_us * 1e-3,
                simd_scalar_us / simd_lanes_us);
    std::printf("#   jacobian_reuse_rate          %.2f\n", reuse_rate);
}

}  // namespace

int main(int argc, char** argv) {
    // Flags first, so --help / unrecognized arguments exit without paying
    // for the stage timing pass (MCSM_BENCH_JSON=0 also skips it).
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    write_bench_perf_json();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

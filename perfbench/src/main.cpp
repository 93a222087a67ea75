// perfbench: the repository benchmark. Runs one named workload for a fixed
// time with a seed, checks the program's outputs, and prints one JSON
// result as the last line of stdout:
//
//   perfbench --workload <lut_socket|exact_mixed|transient> --seed <n>
//             --seconds <s> --trace <0|1> [--source-id <id>]
//             [--work-dir <dir>]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md). Detail lines ("# ...") come first: the run
// fingerprint, every figure by name and unit, the query-class shares and
// the checks. The same content is saved under <work-dir>/results/.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricDef {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (perfbench/selftest.py checks both ways).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"fast_p50_us", "us"},
    {"ref_p50_us", "us"},
};

// Every traced run emits all of these; a layer the workload does not load
// reads 0.
constexpr MetricDef kLayers[] = {
    // the roles' tails, and each workload's named end-to-end figures
    {"fast_tail_us", "us"},
    {"ref_tail_us", "us"},
    {"fail_frac", "ratio"},
    {"lut_qps", "q/s"},
    {"lut_batch_qps", "q/s"},
    {"lut_p50_us", "us"},
    {"lut_p99_us", "us"},
    {"exact_p50_ms", "ms"},
    {"exact_p99_ms", "ms"},
    {"ping_p99_us", "us"},
    {"lut_err_of_bound_pct", "%"},
    {"mcsm_tran_ms", "ms"},
    {"golden_tran_ms", "ms"},
    {"net48_sta_ms", "ms"},
    {"net48_flat_ms", "ms"},
    {"mcsm_delay_err_pct", "%"},
    // net
    {"net.parse_ns", "ns"},
    {"net.render_ns", "ns"},
    {"net.batch_size_mean", "count"},
    {"net.batches", "count"},
    {"net.rejected", "count"},
    {"net.parse_errors", "count"},
    // serve
    {"serve.lut_1t_ns", "ns"},
    {"serve.fanout_eff", "ratio"},
    {"serve.exact_ms", "ms"},
    {"serve.surface_build_ms.pin1", "ms"},
    {"serve.surface_build_ms.pin2", "ms"},
    {"serve.surface_build_ms.pin3", "ms"},
    {"serve.pack_open_ms", "ms"},
    {"serve.surface.pack_loads", "count"},
    {"serve.surface_hit_ratio", "ratio"},
    // lut
    {"lut.at_ns", "ns"},
    {"lut.grad_ns", "ns"},
    // core
    {"core.char_ms.INV_X1", "ms"},
    {"core.char_ms.NOR2", "ms"},
    {"core.char_ms.NAND2", "ms"},
    {"core.char_ms.NAND3", "ms"},
    {"core.char_ms.NOR2_corner", "ms"},
    {"core.newton_per_tran", "count"},
    {"core.us_per_newton", "us"},
    // spice
    {"spice.golden_newton_per_tran", "count"},
    {"spice.golden_us_per_newton", "us"},
    {"spice.assemble_us", "us"},
    {"spice.factor_us", "us"},
    {"spice.solve_us", "us"},
    {"spice.dc_sweep_ms", "ms"},
    {"spice.steps_rejected", "count"},
    {"spice.refactors", "count"},
    {"spice.jacobian_reuses", "count"},
    // sta
    {"sta.stage_ms", "ms"},
    // gen: the benchmark's own client
    {"gen.late_p99_us", "us"},
    {"gen.valid", "count"},
    {"gen.lut.sent", "count"},
    {"gen.lut.ok", "count"},
    {"gen.lut.err", "count"},
    {"gen.lut.busy", "count"},
    {"gen.lut.mismatch", "count"},
    {"gen.exact.sent", "count"},
    {"gen.exact.ok", "count"},
    {"gen.exact.err", "count"},
    {"gen.exact.busy", "count"},
    {"gen.exact.mismatch", "count"},
    {"gen.ping.sent", "count"},
    {"gen.ping.ok", "count"},
    {"gen.ping.err", "count"},
    {"gen.ping.busy", "count"},
    {"gen.ping.mismatch", "count"},
    {"gen.share.pin1", "ratio"},
    {"gen.share.pin2", "ratio"},
    {"gen.share.pin3", "ratio"},
    {"gen.share.pi", "ratio"},
    {"gen.share.corner", "ratio"},
    {"gen.share.out_of_hull", "ratio"},
    {"gen.share.exact", "ratio"},
    // self time per module, from the spans
    {"net.self_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"lut.self_ms", "ms"},
    {"core.self_ms", "ms"},
    {"engine.self_ms", "ms"},
    {"spice.self_ms", "ms"},
    {"sta.self_ms", "ms"},
    // tracing overhead per end-to-end metric
    {"trace.overhead_pct.setup_s", "%"},
    {"trace.overhead_pct.peak_rss_mb", "%"},
    {"trace.overhead_pct.fast_p50_us", "%"},
    {"trace.overhead_pct.fast_tail_us", "%"},
    {"trace.overhead_pct.ref_p50_us", "%"},
    {"trace.overhead_pct.ref_tail_us", "%"},
};

int usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<lut_socket|exact_mixed|transient> --seed <n> --seconds "
                 "<s> --trace <0|1> [--source-id <id>] [--work-dir <dir>]\n",
                 msg);
    return 2;
}

std::string metrics_json(const std::map<std::string, Metric>& have,
                         const MetricDef* defs, std::size_t n) {
    std::string out = "{";
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = have.find(defs[i].name);
        const double v = it == have.end() ? 0.0 : it->second.value;
        if (i != 0) out += ", ";
        out += json_str(defs[i].name) + ": {\"value\": " + json_num(v) +
               ", \"unit\": " + json_str(defs[i].unit) + "}";
    }
    return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
    Args a;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const std::string v = argv[++i];
        try {
            if (arg == "--workload") {
                a.workload = v;
                have_workload = true;
            } else if (arg == "--seed") {
                a.seed = std::stoull(v);
                have_seed = true;
            } else if (arg == "--seconds") {
                a.seconds = std::stod(v);
                have_seconds = a.seconds > 0.0 && std::isfinite(a.seconds);
            } else if (arg == "--trace") {
                if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
                a.trace = v == "1";
                have_trace = true;
            } else if (arg == "--source-id") {
                a.source_id = v;
            } else if (arg == "--work-dir") {
                a.work_dir = v;
            } else {
                return usage(("unknown option " + arg).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds (> 0) and --trace are "
                     "required");

    int (*run)(const Args&, Report&) = nullptr;
    if (a.workload == "lut_socket") run = run_lut_socket;
    if (a.workload == "exact_mixed") run = run_exact_mixed;
    if (a.workload == "transient") run = run_transient;
    if (run == nullptr) return usage(("unknown workload " + a.workload).c_str());

    std::error_code ec;
    std::filesystem::create_directories(a.work_dir + "/results", ec);
    if (ec) return usage(("cannot create " + a.work_dir).c_str());

    Report r;
    try {
        run(a, r);
    } catch (const std::exception& e) {
        r.check(false, std::string("workload threw: ") + e.what());
    }

    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    const double attempted =
        static_cast<double>(r.attempted() == 0 ? 1 : r.attempted());
    r.layer("fail_frac", static_cast<double>(r.failed()) / attempted, "ratio");
    if (a.trace) {
        // Tracing's memory cost: the span buffer as a share of peak RSS.
        r.layer("trace.overhead_pct.peak_rss_mb",
                100.0 * static_cast<double>(Tracer::get().size() *
                                            sizeof(SpanRecord)) /
                    (peak_rss_mb() * 1024.0 * 1024.0),
                "%");
        r.layer("gen.valid", r.layers().count("gen.valid") != 0
                                 ? r.layers().at("gen.valid").value
                                 : 1.0,
                "count");
    }
    const bool correct = r.failed() == 0 && r.all_checks_pass();

    // --- detail lines -----------------------------------------------------
    std::string detail;
    auto line = [&](const std::string& s) {
        detail += "# " + s + "\n";
    };
    std::string fp = "fingerprint";
    for (const auto& [k, v] : fingerprint(a)) fp += " " + k + "=" + json_str(v);
    line(fp);
    line("workload " + a.workload + " seed " + std::to_string(a.seed) +
         " seconds " + json_num(a.seconds) + " trace " + (a.trace ? "1" : "0"));
    for (const std::string& n : r.notes()) line(n);
    for (const auto& [name, m] : r.e2e())
        line("e2e " + name + " " + json_num(m.value) + " " + m.unit);
    for (const auto& [name, m] : r.layers())
        line("layer " + name + " " + json_num(m.value) + " " + m.unit);
    for (const auto& [what, ok] : r.checks())
        line(std::string(ok ? "[PASS] " : "[FAIL] ") + what);
    std::fputs(detail.c_str(), stdout);

    const std::string result =
        "{\"correct\": " + std::string(correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(r.attempted()) +
        ", \"failed\": " + std::to_string(r.failed()) + ", \"metrics\": " +
        (a.trace ? metrics_json(r.layers(), kLayers, std::size(kLayers))
                 : metrics_json(r.e2e(), kEndToEnd, std::size(kEndToEnd))) +
        "}";

    // Saved copy: fingerprint and every figure, next to the result line.
    const std::string saved = a.work_dir + "/results/" + a.workload + "-seed" +
                              std::to_string(a.seed) + "-trace" +
                              (a.trace ? "1" : "0") + ".txt";
    if (std::FILE* f = std::fopen(saved.c_str(), "w")) {
        std::fputs(detail.c_str(), f);
        std::fputs(result.c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
    }

    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

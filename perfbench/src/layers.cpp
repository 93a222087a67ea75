// Pieces shared by the workloads: role reporting, span-derived layer
// figures, obs lookups and the layer micro-measurements.
#include <cmath>
#include <random>
#include <unordered_map>

#include "cells/cell_type.h"
#include "net/query_text.h"
#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

void report_roles(Report& r, const Roles& u, const Roles* t) {
    const std::pair<const char*, double Roles::*> roles[] = {
        {"setup_s", &Roles::setup_s},
        {"fast_p50_us", &Roles::fast_p50},
        {"fast_tail_us", &Roles::fast_tail},
        {"ref_p50_us", &Roles::ref_p50},
        {"ref_tail_us", &Roles::ref_tail}};
    for (const auto& [name, field] : roles) {
        const bool is_setup = field == &Roles::setup_s;
        const double v = is_setup ? u.*field : 1e6 * (u.*field);
        const char* unit = is_setup ? "s" : "us";
        // Tails are reported per layer: they do not hold a bound on a
        // shared host (perfbench/README.md).
        if (field == &Roles::fast_tail || field == &Roles::ref_tail) {
            r.layer(name, v, unit);
        } else {
            r.e2e(name, v, unit);
        }
        if (t != nullptr) {
            const double base = u.*field;
            r.layer(std::string("trace.overhead_pct.") + name,
                    base > 0.0 ? 100.0 * ((*t).*field - base) / base : 0.0,
                    "%");
        }
    }
}

void report_span_layers(Report& r, const std::string& csv_path) {
    const Tracer& t = Tracer::get();
    for (const auto& [module, ns] : t.self_ns_by_module()) {
        r.layer(module + ".self_ms", ns * 1e-6, "ms");
    }
    if (!csv_path.empty()) {
        if (t.write_csv(csv_path)) {
            r.note("spans: " + std::to_string(t.size()) + " written to " +
                   csv_path);
        } else {
            r.note("spans: could not write " + csv_path);
        }
    }
}

long long obs_counter(const mcsm::obs::Snapshot& s, const std::string& name) {
    for (const auto& c : s.counters) {
        if (c.name == name) return c.value;
    }
    return 0;
}

void report_obs_deltas(Report& r, const mcsm::obs::Snapshot& before,
                       const mcsm::obs::Snapshot& after) {
    auto delta = [&](const char* name) {
        return static_cast<double>(obs_counter(after, name) -
                                   obs_counter(before, name));
    };
    const double solves = delta("solver.tran.solves");
    auto per_tran = [&](const char* name) {
        return solves > 0.0 ? delta(name) / solves : 0.0;
    };
    r.layer("spice.steps_rejected", per_tran("solver.tran.steps_rejected"),
            "count");
    r.layer("spice.refactors", per_tran("solver.tran.lu_refactors"), "count");
    r.layer("spice.jacobian_reuses",
            per_tran("solver.tran.jacobian_reuse_steps"), "count");
    const double hits = delta("serve.surface.hit");
    const double misses = delta("serve.surface.miss");
    r.layer("serve.surface_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
}

void report_net_counters(Report& r, const mcsm::net::NetServer::Counters& c) {
    r.layer("net.batches", static_cast<double>(c.batches), "count");
    r.layer("net.rejected", static_cast<double>(c.rejected), "count");
    r.layer("net.parse_errors", static_cast<double>(c.parse_errors), "count");
    r.layer("net.batch_size_mean",
            c.batches == 0 ? 0.0
                           : static_cast<double>(c.served) /
                                 static_cast<double>(c.batches),
            "count");
}

void measure_net_codec(Report& r, const std::vector<std::string>& lines,
                       const std::vector<mcsm::serve::TimingResult>& results) {
    const auto n = static_cast<std::uint32_t>(lines.size());
    {
        mcsm::serve::TimingQuery q;
        Span sp("net.parse_query_line", 0, n);
        for (const std::string& line : lines) mcsm::net::parse_query_line(line, q);
    }
    {
        std::string out;
        out.reserve(results.size() * 64);
        Span sp("net.append_result_line", 0,
                static_cast<std::uint32_t>(results.size()));
        for (std::size_t i = 0; i < results.size(); ++i)
            mcsm::net::append_result_line(out, i + 1, results[i]);
    }
    const auto stats = Tracer::get().by_name();
    r.layer("net.parse_ns", stats.at("net.parse_query_line").ns_per_call(),
            "ns");
    r.layer("net.render_ns", stats.at("net.append_result_line").ns_per_call(),
            "ns");
}

void measure_lut_layer(Report& r, const mcsm::core::CsmModel& nor2,
                       std::uint64_t seed) {
    const mcsm::lut::NdTable& table = nor2.i_out;
    const std::size_t dim = table.rank();
    constexpr std::size_t kPoints = 4096;
    constexpr int kPasses = 50;
    std::mt19937_64 rng(seed ^ 0x5eedu);
    std::vector<double> pts(kPoints * dim);
    for (std::size_t i = 0; i < kPoints; ++i) {
        for (std::size_t d = 0; d < dim; ++d) {
            const auto& ax = table.axis(d);
            pts[i * dim + d] =
                std::uniform_real_distribution<double>(ax.lo(), ax.hi())(rng);
        }
    }
    std::vector<double> grad(dim);
    double sink = 0.0;
    const std::uint32_t calls = kPoints * kPasses;
    {
        Span s("lut.NdTable.at", 0, calls);
        for (int p = 0; p < kPasses; ++p)
            for (std::size_t i = 0; i < kPoints; ++i)
                sink += table.at({&pts[i * dim], dim});
    }
    {
        Span s("lut.NdTable.at_with_gradient", 0, calls);
        for (int p = 0; p < kPasses; ++p)
            for (std::size_t i = 0; i < kPoints; ++i)
                sink += table.at_with_gradient({&pts[i * dim], dim}, grad);
    }
    const auto stats = Tracer::get().by_name();
    r.layer("lut.at_ns", stats.at("lut.NdTable.at").ns_per_call(), "ns");
    r.layer("lut.grad_ns",
            stats.at("lut.NdTable.at_with_gradient").ns_per_call(), "ns");
    r.check(std::isfinite(sink), "lut: NOR2 i_out lookups are finite");
}

void measure_dc_sweep(Report& r, const mcsm::cells::CellLibrary& lib) {
    using mcsm::spice::Circuit;
    using mcsm::spice::SourceSpec;
    namespace cells = mcsm::cells;
    // NOR2 with every modeled node forced (pins, stack node, output): the
    // MCSM characterization fixture.
    Circuit c;
    const int vdd = c.node("vdd");
    c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(lib.tech().vdd));
    const int a = c.node("a");
    const int b = c.node("b");
    const int out = c.node("out");
    c.add_vsource("VA", a, Circuit::kGround, SourceSpec::dc(0.0));
    c.add_vsource("VB", b, Circuit::kGround, SourceSpec::dc(0.0));
    c.add_vsource("VOUT", out, Circuit::kGround, SourceSpec::dc(0.0));
    const cells::CellType& nor = lib.get("NOR2");
    std::unordered_map<std::string, int> conn{{cells::kVdd, vdd},
                                              {cells::kGnd, 0},
                                              {"A", a},
                                              {"B", b},
                                              {cells::kOut, out}};
    for (const std::string& formal : nor.internal_nodes()) {
        std::string node = "int_";
        node += formal;
        const int n = c.node(node);
        conn[formal] = n;
        std::string src = "VN_";
        src += formal;
        c.add_vsource(src, n, Circuit::kGround, SourceSpec::dc(0.0));
    }
    nor.instantiate(c, "DUT", conn);
    c.prepare();
    std::vector<mcsm::spice::VSource*> swept{&c.vsource("VA"),
                                             &c.vsource("VB")};
    for (const std::string& formal : nor.internal_nodes()) {
        std::string src = "VN_";
        src += formal;
        swept.push_back(&c.vsource(src));
    }
    swept.push_back(&c.vsource("VOUT"));

    const std::vector<double> knots{-0.2, 0.0, 0.4, 0.8, 1.2, 1.4};
    const std::size_t dim = swept.size();
    std::vector<double> values;
    std::vector<std::size_t> idx(dim, 0);
    for (bool more = true; more;) {
        for (std::size_t d = 0; d < dim; ++d) values.push_back(knots[idx[d]]);
        more = false;
        for (std::size_t d = dim; d-- > 0;) {
            if (++idx[d] < knots.size()) {
                more = true;
                break;
            }
            idx[d] = 0;
        }
    }
    const std::size_t n_points = values.size() / dim;
    constexpr int kReps = 3;
    double sink = 0.0;
    std::size_t visited = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        Span s("spice.solve_dc_sweep");
        mcsm::spice::solve_dc_sweep(
            c, swept, values, n_points, {}, nullptr,
            [&](std::size_t, const std::vector<double>& x) {
                sink += x.back();
                ++visited;
            });
    }
    const auto stats = Tracer::get().by_name();
    r.layer("spice.dc_sweep_ms",
            stats.at("spice.solve_dc_sweep").ns_per_call() * 1e-6, "ms");
    r.check(visited == kReps * n_points && std::isfinite(sink),
            "spice: NOR2 DC sweep visits every point with finite results");
}

}  // namespace perfbench

// transient: the paper's premise, MCSM simulation vs transistor level, in
// process. Seeded NOR2 FO2 scenarios (both history cases plus simultaneous
// falls at seeded skews) run as an MCSM ModelCell (2x INV_X1 receiver caps)
// and as a transistor-level GoldenCell, interleaved, on four threads; a
// seeded 48-gate network runs through WaveformSta and run_golden_flat
// between blocks of scenario pairs.
//
// Roles: fast = one MCSM NOR2 FO2 transient, ref = the same scenario at
// transistor level; set-up = characterizing INV_X1 (SIS), NOR2 and NAND2
// (MCSM) at stock CharOptions.
#include <atomic>
#include <cmath>
#include <optional>
#include <random>
#include <thread>

#include "core/characterizer.h"
#include "core/model_scenarios.h"
#include "engine/scenarios.h"
#include "gen.h"
#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "spice/solver_workspace.h"
#include "sta/golden_flat.h"
#include "sta/wave_sta.h"
#include "trace.h"
#include "wave/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = mcsm::core;
namespace engine = mcsm::engine;
namespace spice = mcsm::spice;
namespace sta = mcsm::sta;
namespace wave = mcsm::wave;

constexpr double kTstop = 3.2e-9;
constexpr double kDt = 1e-12;
constexpr int kNetWidth = 8;
constexpr int kNetDepth = 6;
constexpr double kNetTstop = 5e-9;
// Threads running scenario pairs, and the seconds of pairs between two
// 48-gate passes (which keeps about a fifth of the time on the network).
constexpr std::size_t kWorkers = 4;
constexpr double kBlock = 5.0;

struct Scenario {
    std::string label;
    wave::Waveform a;
    wave::Waveform b;
    bool late_is_b = false;  // delay reference: the latest input edge
    double t_from = 0.0;
};

struct Models {
    core::CsmModel inv;
    core::CsmModel nor;
    core::CsmModel nand;
};

Models characterize(const Lib& L, std::map<std::string, double>* ms) {
    const core::Characterizer chr(L.lib);
    auto timed = [&](const char* cell, core::ModelKind kind,
                     std::vector<std::string> pins) {
        const auto t0 = Clock::now();
        Span s("core.Characterizer.characterize");
        core::CsmModel m = chr.characterize(cell, kind, pins);
        if (ms != nullptr) (*ms)[cell] = 1e3 * seconds_since(t0);
        return m;
    };
    Models m{timed("INV_X1", core::ModelKind::kSis, {"A"}),
             timed("NOR2", core::ModelKind::kMcsm, {"A", "B"}),
             timed("NAND2", core::ModelKind::kMcsm, {"A", "B"})};
    return m;
}

std::vector<Scenario> make_scenarios(double vdd, std::uint64_t seed) {
    std::vector<Scenario> out;
    for (const auto hc :
         {engine::HistoryCase::kFast10, engine::HistoryCase::kSlow01}) {
        const engine::HistoryStimulus st = engine::nor2_history(hc, vdd);
        out.push_back({hc == engine::HistoryCase::kFast10 ? "history_fast10"
                                                           : "history_slow01",
                       st.a, st.b, false, st.t_final - 0.2e-9});
    }
    // Skews stratified over [-80, 80] ps: one seeded draw per stratum, so
    // every seed covers the whole range.
    std::mt19937_64 rng(seed);
    constexpr int kMis = 14;
    for (int i = 0; i < kMis; ++i) {
        const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
        const double skew = -80e-12 + 160e-12 * (i + u) / kMis;
        const engine::MisStimulus st =
            engine::nor2_simultaneous_fall(vdd, 2.0e-9, 80e-12, skew);
        char label[48];
        std::snprintf(label, sizeof label, "mis_fall_skew_%+.1fps",
                      skew * 1e12);
        out.push_back({label, st.a, st.b, skew >= 0.0, st.t_edge - 0.2e-9});
    }
    return out;
}

struct SimOut {
    double seconds = 0.0;
    long long newton = 0;
    std::optional<double> delay;
};

SimOut run_mcsm(const Models& m, const Scenario& s, double vdd,
                std::uint64_t id) {
    core::ModelLoadSpec load;
    load.fanout_count = 2;
    load.receiver = &m.inv;
    core::ModelCell cell(m.nor, {{"A", s.a}, {"B", s.b}}, load);
    spice::TranOptions topt;
    topt.tstop = kTstop;
    topt.dt = kDt;
    SimOut o;
    const auto t0 = Clock::now();
    spice::TranResult res;
    {
        Span sp("core.ModelCell.run", id);
        res = cell.run(topt);
    }
    o.seconds = seconds_since(t0);
    o.newton = res.stats().newton_iters;
    o.delay = wave::delay_50(s.late_is_b ? s.b : s.a, false,
                             res.node_waveform(cell.out_node()), true, vdd,
                             s.t_from);
    return o;
}

SimOut run_golden(const Lib& L, const Scenario& s, double vdd,
                  std::uint64_t id) {
    engine::GoldenCell cell(L.lib, "NOR2", {{"A", s.a}, {"B", s.b}},
                            engine::LoadSpec{0.0, 2, "INV_X1"});
    spice::TranOptions topt;
    topt.tstop = kTstop;
    topt.dt = kDt;
    SimOut o;
    const auto t0 = Clock::now();
    spice::TranResult res;
    {
        Span sp("engine.GoldenCell.run", id);
        res = cell.run(topt);
    }
    o.seconds = seconds_since(t0);
    o.newton = res.stats().newton_iters;
    o.delay = wave::delay_50(s.late_is_b ? s.b : s.a, false,
                             res.node_waveform(cell.out_node()), true, vdd,
                             s.t_from);
    return o;
}

// Flat transistor-level circuit of a gate netlist, built the way
// run_golden_flat builds it (for the solver workspace micro-measurement).
spice::Circuit flat_circuit(const sta::GateNetlist& nl,
                            const mcsm::cells::CellLibrary& lib) {
    using spice::Circuit;
    using spice::SourceSpec;
    Circuit c;
    const int vdd = c.node("vdd");
    c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(lib.tech().vdd));
    for (const auto& [net, w] : nl.primary_inputs()) {
        std::string name = "V_";
        name += net;
        c.add_vsource(name, c.node(net), Circuit::kGround, SourceSpec::pwl(w));
    }
    for (const sta::Instance& inst : nl.instances()) {
        const mcsm::cells::CellType& cell = lib.get(inst.cell);
        std::unordered_map<std::string, int> conn;
        conn[mcsm::cells::kVdd] = vdd;
        conn[mcsm::cells::kGnd] = Circuit::kGround;
        conn[mcsm::cells::kOut] = c.node(inst.conn.at("OUT"));
        for (const mcsm::cells::PinInfo& pin : cell.inputs())
            conn[pin.name] = c.node(inst.conn.at(pin.name));
        cell.instantiate(c, inst.name, conn);
    }
    for (const sta::Instance& inst : nl.instances()) {
        const std::string& net = inst.conn.at("OUT");
        std::string name = "CW_";
        name += net;
        c.add_capacitor(name, c.node(net), Circuit::kGround, nl.wire_cap(net));
    }
    return c;
}

void measure_workspace(Report& r, const sta::GateNetlist& nl,
                       const mcsm::cells::CellLibrary& lib) {
    spice::Circuit c = flat_circuit(nl, lib);
    const spice::DcResult op = spice::solve_dc(c);
    spice::SolverWorkspace& ws = c.workspace();
    spice::SimContext ctx;
    ctx.mode = spice::SimContext::Mode::kDc;
    ctx.x = &op.x;
    constexpr int kCalls = 2000;
    double sink = 0.0;
    for (int i = 0; i < kCalls; ++i) {
        {
            Span s("spice.SolverWorkspace.assemble");
            ws.assemble(ctx).add_gmin_everywhere(1e-12);
        }
        {
            Span s("spice.SolverWorkspace.factor");
            ws.factor();
        }
        {
            Span s("spice.SolverWorkspace.solve");
            sink += ws.solve().back();
        }
    }
    const auto st = Tracer::get().by_name();
    r.layer("spice.assemble_us",
            st.at("spice.SolverWorkspace.assemble").ns_per_call() * 1e-3, "us");
    r.layer("spice.factor_us",
            st.at("spice.SolverWorkspace.factor").ns_per_call() * 1e-3, "us");
    r.layer("spice.solve_us",
            st.at("spice.SolverWorkspace.solve").ns_per_call() * 1e-3, "us");
    r.check(std::isfinite(sink), "spice: flat 48-gate workspace solves finite");
}

struct Measured {
    SlicedSamples mcsm, golden;
    Samples net_sta, net_flat;
    long long mcsm_newton = 0, golden_newton = 0;
};

}  // namespace

int run_transient(const Args& a, Report& r) {
    const Lib L;
    const double vdd = L.tech.vdd;

    // --- set-up: characterize, several times; keep the last models -----
    constexpr int kSetupReps = 3;
    std::vector<double> setup;
    std::map<std::string, std::vector<double>> char_ms;
    std::optional<Models> models;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        std::map<std::string, double> ms;
        models.emplace(characterize(L, &ms));
        setup.push_back(seconds_since(t0));
        for (const auto& [cell, v] : ms) char_ms[cell].push_back(v);
    }
    const Models& m = *models;
    Roles untraced;
    untraced.setup_s = median_of(setup);

    const std::vector<Scenario> scen = make_scenarios(vdd, a.seed);
    const sta::GateNetlist net = make_network(kNetWidth, kNetDepth, vdd, a.seed);
    const std::size_t n_gates = net.instances().size();
    sta::WaveformSta wsta(net, {{"INV_X1", &m.inv},
                                {"NAND2", &m.nand},
                                {"NOR2", &m.nor}});

    // --- first pass: outputs and accuracy checks (not timed) ------------
    double worst_err = 0.0;
    std::string worst_label;
    bool delays_ok = true;
    for (std::size_t i = 0; i < scen.size(); ++i) {
        const SimOut mo = run_mcsm(m, scen[i], vdd, i);
        const SimOut go = run_golden(L, scen[i], vdd, i);
        r.attempt(2);
        if (!mo.delay || !go.delay || *go.delay <= 0.0) {
            delays_ok = false;
            r.fail(2);
            continue;
        }
        const double err = 100.0 * std::fabs(*mo.delay - *go.delay) / *go.delay;
        if (err > worst_err) {
            worst_err = err;
            worst_label = scen[i].label;
        }
    }
    r.check(delays_ok, "transient: every MCSM and golden output crosses 50%");
    r.check(worst_err < 5.0,
            "transient: max MCSM-vs-golden 50% delay error below the 5% "
            "fig09 bound");
    r.layer("mcsm_delay_err_pct", worst_err, "%");
    r.note("mcsm_delay_err_pct " + std::to_string(worst_err) + " % (worst: " +
           worst_label + ", " + std::to_string(scen.size()) + " scenarios)");

    sta::WaveStaOptions wopt;
    wopt.tstop = kNetTstop;
    wopt.dt = kDt;
    {
        const auto model_nets = wsta.run(wopt);
        const auto golden_nets = sta::run_golden_flat(net, L.lib, kNetTstop, kDt);
        double worst_final = 0.0;
        double worst_nrmse = 0.0;
        for (const sta::Instance& inst : net.instances()) {
            const std::string& n = inst.conn.at("OUT");
            worst_nrmse = std::max(
                worst_nrmse, wave::rmse_normalized(golden_nets.at(n),
                                                   model_nets.at(n), 0.9e-9,
                                                   kNetTstop - 0.1e-9, vdd));
            worst_final =
                std::max(worst_final, std::fabs(golden_nets.at(n).last_value() -
                                                model_nets.at(n).last_value()));
        }
        r.attempt(2);
        r.check(worst_final < 0.1,
                "transient: 48-gate network settles to the golden logic "
                "values on every net (worst " + std::to_string(worst_final) +
                    " V)");
        r.note("net48: " + std::to_string(n_gates) + " gates, worst NRMSE vs "
               "flat golden " + std::to_string(worst_nrmse));
    }

    // --- measurement ------------------------------------------------------
    // Blocks of scenario pairs on kWorkers threads (each pair MCSM then
    // golden or the reverse, alternating), each block followed by one
    // 48-gate pass on the calling thread; a block is one tail slice.
    auto measure = [&](double seconds, Measured& out) {
        const auto t0 = Clock::now();
        std::atomic<std::size_t> next{0};
        std::size_t slice = 0;
        do {
            const auto block_end =
                Clock::now() + std::chrono::duration<double>(kBlock);
            struct Local {
                std::vector<double> mcsm, golden;
                long long mcsm_newton = 0, golden_newton = 0;
                std::uint64_t attempted = 0, failed = 0;
            };
            std::vector<Local> local(kWorkers);
            std::vector<std::thread> workers;
            for (std::size_t w = 0; w < kWorkers; ++w) {
                workers.emplace_back([&, w] {
                    Local& l = local[w];
                    while (Clock::now() < block_end) {
                        const std::size_t i = next++;
                        const Scenario& s = scen[i % scen.size()];
                        SimOut mo, go;
                        if (i % 2 == 0) {
                            mo = run_mcsm(m, s, vdd, i);
                            go = run_golden(L, s, vdd, i);
                        } else {
                            go = run_golden(L, s, vdd, i);
                            mo = run_mcsm(m, s, vdd, i);
                        }
                        l.mcsm.push_back(mo.seconds);
                        l.golden.push_back(go.seconds);
                        l.mcsm_newton += mo.newton;
                        l.golden_newton += go.newton;
                        l.attempted += 2;
                        if (!mo.delay || !go.delay) l.failed += 2;
                    }
                });
            }
            for (std::thread& t : workers) t.join();
            for (const Local& l : local) {
                for (const double v : l.mcsm) out.mcsm.add_to(slice, v);
                for (const double v : l.golden) out.golden.add_to(slice, v);
                out.mcsm_newton += l.mcsm_newton;
                out.golden_newton += l.golden_newton;
                r.attempt(l.attempted);
                r.fail(l.failed);
            }
            auto ts = Clock::now();
            {
                Span sp("sta.WaveformSta.run", 1000000 + slice);
                (void)wsta.run(wopt);
            }
            out.net_sta.add(seconds_since(ts));
            ts = Clock::now();
            {
                Span sp("sta.run_golden_flat", 1000000 + slice);
                (void)sta::run_golden_flat(net, L.lib, kNetTstop, kDt);
            }
            out.net_flat.add(seconds_since(ts));
            r.attempt(2);
            ++slice;
        } while (seconds_since(t0) < seconds);
    };

    const mcsm::obs::Snapshot before = mcsm::obs::snapshot();
    Measured mu;
    measure(a.trace ? a.seconds / 2 : a.seconds, mu);
    const mcsm::obs::Snapshot after = mcsm::obs::snapshot();
    untraced.fast_p50 = mu.mcsm.median();
    untraced.fast_tail = mu.mcsm.tail();
    untraced.ref_p50 = mu.golden.median();
    untraced.ref_tail = mu.golden.tail();

    r.note("mcsm_tran: " + mu.mcsm.summary(1e3, "ms"));
    r.note("golden_tran: " + mu.golden.summary(1e3, "ms"));
    r.note("net48_sta: " + mu.net_sta.summary(1e3, "ms"));
    r.note("net48_flat: " + mu.net_flat.summary(1e3, "ms"));
    r.layer("mcsm_tran_ms", 1e3 * mu.mcsm.median(), "ms");
    r.layer("golden_tran_ms", 1e3 * mu.golden.median(), "ms");
    r.layer("net48_sta_ms", 1e3 * mu.net_sta.median(), "ms");
    r.layer("net48_flat_ms", 1e3 * mu.net_flat.median(), "ms");
    r.check(!mu.net_sta.empty(), "transient: at least one 48-gate pass ran");

    report_obs_deltas(r, before, after);
    for (const auto& [cell, v] : char_ms)
        r.layer("core.char_ms." + cell, median_of(v), "ms");

    if (!a.trace) {
        report_roles(r, untraced, nullptr);
        return 0;
    }

    // --- traced half -------------------------------------------------------
    Tracer::get().set_enabled(true);
    Roles traced;
    {
        const auto t0 = Clock::now();
        (void)characterize(L, nullptr);
        traced.setup_s = seconds_since(t0);
    }
    Measured mt;
    measure(a.seconds / 2, mt);
    traced.fast_p50 = mt.mcsm.median();
    traced.fast_tail = mt.mcsm.tail();
    traced.ref_p50 = mt.golden.median();
    traced.ref_tail = mt.golden.tail();

    const auto st = Tracer::get().by_name();
    const auto& mc = st.at("core.ModelCell.run");
    const auto& gc = st.at("engine.GoldenCell.run");
    r.layer("core.newton_per_tran",
            static_cast<double>(mt.mcsm_newton) / static_cast<double>(mc.calls),
            "count");
    r.layer("core.us_per_newton",
            mc.total_ns * 1e-3 / static_cast<double>(mt.mcsm_newton), "us");
    r.layer("spice.golden_newton_per_tran",
            static_cast<double>(mt.golden_newton) / static_cast<double>(gc.calls),
            "count");
    r.layer("spice.golden_us_per_newton",
            gc.total_ns * 1e-3 / static_cast<double>(mt.golden_newton), "us");
    r.layer("sta.stage_ms",
            st.at("sta.WaveformSta.run").ns_per_call() * 1e-6 /
                static_cast<double>(n_gates),
            "ms");

    measure_workspace(r, net, L.lib);
    measure_lut_layer(r, m.nor, a.seed);
    measure_dc_sweep(r, L.lib);
    report_roles(r, untraced, &traced);
    report_span_layers(r, a.work_dir + "/trace-transient.csv");
    return 0;
}

}  // namespace perfbench

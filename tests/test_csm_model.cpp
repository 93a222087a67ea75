// End-to-end model tests: characterize CSM models of INV and NOR2 (fast
// model-linearization capacitance mode) and check the model structure, DC
// consistency, and accuracy against the transistor-level golden runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ios>
#include <random>
#include <vector>

#include "core/characterizer.h"
#include "core/csm_device.h"
#include "core/explicit_sim.h"
#include "core/model_scenarios.h"
#include "core/selective.h"
#include "engine/crosstalk.h"
#include "engine/scenarios.h"
#include "spice/solver_workspace.h"
#include "tech/tech130.h"
#include "wave/metrics.h"

namespace mcsm::core {
namespace {

using engine::GoldenCell;
using engine::HistoryCase;
using engine::LoadSpec;

// Shared, lazily-characterized models (characterization is the slow part).
class ModelSuite {
public:
    static const ModelSuite& get() {
        static ModelSuite suite;
        return suite;
    }

    tech::Technology tech = tech::make_tech130();
    cells::CellLibrary lib{tech};
    CsmModel inv_sis;
    CsmModel nor_mcsm;
    CsmModel nor_baseline;

private:
    ModelSuite() {
        const Characterizer chr(lib);
        CharOptions fast;
        fast.transient_caps = false;
        fast.grid_points = 11;
        inv_sis = chr.characterize("INV_X1", ModelKind::kSis, {"A"}, fast);
        CharOptions nor_opt = fast;
        nor_opt.grid_points = 9;
        nor_mcsm =
            chr.characterize("NOR2", ModelKind::kMcsm, {"A", "B"}, nor_opt);
        nor_baseline = chr.characterize("NOR2", ModelKind::kMisBaseline,
                                        {"A", "B"}, nor_opt);
    }
};

TEST(CsmCharacterize, InvSisStructure) {
    const auto& s = ModelSuite::get();
    const CsmModel& m = s.inv_sis;
    EXPECT_EQ(m.kind, ModelKind::kSis);
    EXPECT_EQ(m.dim(), 2u);
    EXPECT_TRUE(m.internals.empty());
    ASSERT_EQ(m.c_in.size(), 1u);

    // Stable points: input low, output high -> no current.
    const std::array<double, 2> stable{0.0, s.tech.vdd};
    EXPECT_NEAR(m.io(stable), 0.0, 1e-7);
    // Input high, output still high: strong pull-down, current INTO cell.
    const std::array<double, 2> pulling{s.tech.vdd, s.tech.vdd};
    EXPECT_GT(m.io(pulling), 1e-5);
    // Input low, output low: pull-up delivers current (negative by our
    // convention).
    const std::array<double, 2> charging{0.0, 0.0};
    EXPECT_LT(m.io(charging), -1e-5);

    // Input cap is fF-scale and positive everywhere.
    for (double vin = 0.0; vin <= s.tech.vdd; vin += 0.1) {
        const double c = m.cin(0, vin);
        EXPECT_GT(c, 0.1e-15);
        EXPECT_LT(c, 20e-15);
    }
}

TEST(CsmCharacterize, NorMcsmStructure) {
    const auto& s = ModelSuite::get();
    const CsmModel& m = s.nor_mcsm;
    EXPECT_EQ(m.kind, ModelKind::kMcsm);
    EXPECT_EQ(m.dim(), 4u);
    ASSERT_EQ(m.internals.size(), 1u);
    EXPECT_EQ(m.internals[0], "N");
    ASSERT_EQ(m.i_internal.size(), 1u);
    ASSERT_EQ(m.c_miller.size(), 2u);

    // '00', out=vdd, N=vdd: stable - both currents vanish.
    const double vdd = s.tech.vdd;
    const std::array<double, 4> stable{0.0, 0.0, vdd, vdd};
    EXPECT_NEAR(m.io(stable), 0.0, 1e-7);
    EXPECT_NEAR(m.in(0, stable), 0.0, 1e-7);

    // '00' with out=0: pull-up charges the load through the stack
    // (current flows out of the cell at OUT: negative Io).
    const std::array<double, 4> rising{0.0, 0.0, vdd, 0.0};
    EXPECT_LT(m.io(rising), -1e-5);

    // '00' with N=0: the stack node must charge up (negative IN).
    const std::array<double, 4> n_charges{0.0, 0.0, 0.0, 0.0};
    EXPECT_LT(m.in(0, n_charges), -1e-5);

    // Capacitances positive at a mid bias.
    const std::array<double, 4> mid{0.6, 0.6, 0.6, 0.6};
    EXPECT_GT(m.co(mid), 0.1e-15);
    EXPECT_GT(m.cn(0, mid), 0.1e-15);
    EXPECT_GT(m.cm(0, mid), 0.0);
    EXPECT_GT(m.cm(1, mid), 0.0);
}

TEST(CsmCharacterize, ModelDcStateMatchesPhysics) {
    const auto& s = ModelSuite::get();
    const double vdd = s.tech.vdd;

    // '00': out high, N high.
    const std::array<double, 2> in00{0.0, 0.0};
    auto st = s.nor_mcsm.dc_state(in00);
    ASSERT_EQ(st.size(), 2u);  // [N, out]
    EXPECT_NEAR(st[0], vdd, 0.06);
    EXPECT_NEAR(st[1], vdd, 0.06);

    // '10' (A=1): out low, N connected to VDD via M4.
    const std::array<double, 2> in10{vdd, 0.0};
    st = s.nor_mcsm.dc_state(in10);
    EXPECT_NEAR(st[0], vdd, 0.06);
    EXPECT_NEAR(st[1], 0.0, 0.06);

    // '01' (B=1): out low, N discharged to the body-affected |Vt,p|.
    const std::array<double, 2> in01{0.0, vdd};
    st = s.nor_mcsm.dc_state(in01);
    EXPECT_GT(st[0], 0.05);
    EXPECT_LT(st[0], 0.7);
    EXPECT_NEAR(st[1], 0.0, 0.06);
}

// Golden vs model delay for one history case; returns {golden, model} 50%
// delays of the final rising output transition.
std::pair<double, double> history_delays(const CsmModel& nor_model,
                                         HistoryCase hc, int fanout) {
    const auto& s = ModelSuite::get();
    const engine::HistoryStimulus stim = engine::nor2_history(hc, s.tech.vdd);

    spice::TranOptions topt;
    topt.tstop = 3.2e-9;
    topt.dt = 1e-12;

    GoldenCell golden(s.lib, "NOR2", {{"A", stim.a}, {"B", stim.b}},
                      LoadSpec{0.0, fanout, "INV_X1"});
    const wave::Waveform g_out = golden.run(topt).node_waveform(golden.out_node());

    ModelLoadSpec mload;
    mload.fanout_count = fanout;
    mload.receiver = &s.inv_sis;
    ModelCell model(nor_model, {{"A", stim.a}, {"B", stim.b}}, mload);
    const wave::Waveform m_out = model.run(topt).node_waveform(model.out_node());

    const auto dg = wave::delay_50(stim.a, false, g_out, true, s.tech.vdd,
                                   stim.t_final - 0.2e-9);
    const auto dm = wave::delay_50(stim.a, false, m_out, true, s.tech.vdd,
                                   stim.t_final - 0.2e-9);
    EXPECT_TRUE(dg.has_value());
    EXPECT_TRUE(dm.has_value());
    return {dg.value_or(0.0), dm.value_or(0.0)};
}

TEST(CsmAccuracy, McsmTracksBothHistories) {
    const auto& s = ModelSuite::get();
    for (const HistoryCase hc : {HistoryCase::kFast10, HistoryCase::kSlow01}) {
        const auto [dg, dm] = history_delays(s.nor_mcsm, hc, 2);
        const double err = std::fabs(dm - dg) / dg;
        // The paper reports a 4% worst case for MCSM (Fig. 9).
        EXPECT_LT(err, 0.05) << "case=" << static_cast<int>(hc)
                             << " golden=" << dg << " model=" << dm;
    }
}

TEST(CsmAccuracy, BaselineMissesTheHistoryEffect) {
    const auto& s = ModelSuite::get();
    // The baseline model predicts (nearly) the same delay for both
    // histories, so it must err significantly on at least one of them.
    const auto [dg_fast, dm_fast] =
        history_delays(s.nor_baseline, HistoryCase::kFast10, 2);
    const auto [dg_slow, dm_slow] =
        history_delays(s.nor_baseline, HistoryCase::kSlow01, 2);
    const double err_fast = std::fabs(dm_fast - dg_fast) / dg_fast;
    const double err_slow = std::fabs(dm_slow - dg_slow) / dg_slow;
    EXPECT_GT(std::max(err_fast, err_slow), 0.08);
    // And the baseline cannot separate the two cases the way SPICE does.
    const double golden_split = std::fabs(dg_slow - dg_fast) / dg_slow;
    const double model_split = std::fabs(dm_slow - dm_fast) / dm_slow;
    EXPECT_LT(model_split, 0.6 * golden_split);
}

TEST(CsmAccuracy, McsmBeatsBaselineOnWorstCase) {
    const auto& s = ModelSuite::get();
    double worst_mcsm = 0.0;
    double worst_base = 0.0;
    for (const HistoryCase hc : {HistoryCase::kFast10, HistoryCase::kSlow01}) {
        const auto [dg_m, dm_m] = history_delays(s.nor_mcsm, hc, 1);
        const auto [dg_b, dm_b] = history_delays(s.nor_baseline, hc, 1);
        worst_mcsm = std::max(worst_mcsm, std::fabs(dm_m - dg_m) / dg_m);
        worst_base = std::max(worst_base, std::fabs(dm_b - dg_b) / dg_b);
    }
    EXPECT_LT(worst_mcsm, worst_base);
}

TEST(CsmExplicit, MatchesImplicitEngineOnCapLoad) {
    const auto& s = ModelSuite::get();
    const engine::MisStimulus stim =
        engine::nor2_simultaneous_fall(s.tech.vdd, 1.0e-9);

    const double cl = 5e-15;
    ExplicitOptions eopt;
    eopt.tstop = 2.5e-9;
    eopt.dt = 0.25e-12;
    eopt.load_cap = cl;
    const ExplicitResult er =
        simulate_explicit(s.nor_mcsm, {stim.a, stim.b}, eopt);

    ModelLoadSpec load;
    load.cap = cl;
    ModelCell cell(s.nor_mcsm, {{"A", stim.a}, {"B", stim.b}}, load);
    spice::TranOptions topt;
    topt.tstop = 2.5e-9;
    topt.dt = 1e-12;
    const wave::Waveform imp =
        cell.run(topt).node_waveform(cell.out_node());

    const double nrmse = wave::rmse_normalized(er.out, imp, 0.5e-9, 2.5e-9,
                                               s.tech.vdd);
    EXPECT_LT(nrmse, 0.03);
}

TEST(CsmSelective, PolicyPrefersCompleteModelForLightLoads) {
    const auto& s = ModelSuite::get();
    const double sig_light = internal_node_significance(s.nor_mcsm, 1e-15);
    const double sig_heavy = internal_node_significance(s.nor_mcsm, 100e-15);
    EXPECT_GT(sig_light, sig_heavy);
    EXPECT_GT(sig_light, 0.0);

    SelectivePolicy policy;
    policy.threshold = 0.5 * (sig_light + sig_heavy);
    EXPECT_EQ(&select_model(s.nor_mcsm, s.nor_baseline, 1e-15, policy),
              &s.nor_mcsm);
    EXPECT_EQ(&select_model(s.nor_mcsm, s.nor_baseline, 100e-15, policy),
              &s.nor_baseline);
}

// --- pinned device evaluation path ----------------------------------------

// Newton-iteration count, record length and hexfloat samples of one MCSM
// transient through CsmCellDevice. The values were captured from a build
// that evaluated every table with its own multilinear lookup; the device
// now evaluates a cell's tables from one shared grid point in the same
// floating-point order, so every bit must hold.
constexpr std::size_t kPinnedSamples = 12;

struct PinnedTransient {
    long long newton_iters;
    std::size_t samples;
    std::array<double, kPinnedSamples> out;
    std::array<double, kPinnedSamples> node;  // internal node / victim net
};

void expect_pinned(const spice::TranResult& r, int out_node, int node,
                   const PinnedTransient& want, const char* what) {
    EXPECT_EQ(r.stats().newton_iters, want.newton_iters) << what;
    const wave::Waveform out = r.node_waveform(out_node);
    const wave::Waveform nv = r.node_waveform(node);
    ASSERT_EQ(out.size(), want.samples) << what;
    for (std::size_t k = 0; k < kPinnedSamples; ++k) {
        // Evenly spread over the record, last sample included.
        const std::size_t i = (k + 1) * (out.size() - 1) / kPinnedSamples;
        EXPECT_EQ(out.value(i), want.out[k])
            << what << " out[" << i << "] = " << std::hexfloat
            << out.value(i);
        EXPECT_EQ(nv.value(i), want.node[k])
            << what << " node[" << i << "] = " << std::hexfloat
            << nv.value(i);
    }
}

constexpr PinnedTransient kPinnedHistory = {
    4718, 3201,
    {0x1.1a400a007a35p-21, 0x1.1a400a00ba19p-21, 0x1.1a400a00ba19p-21,
     0x1.4d4323c4f047bp-8, 0x1.256026c95f1d4p-15, 0x1.15fe8837a73b2p-15,
     0x1.0771274a66b94p-15, 0x1.263afc93d973ep+0, 0x1.33332c8b7269ap+0,
     0x1.33332d687777dp+0, 0x1.33332d6877847p+0, 0x1.33332d6877845p+0},
    {0x1.33332e1c3c1p+0, 0x1.33332e1c3c1p+0, 0x1.33332e1c3c1p+0,
     0x1.415de7a511bdfp+0, 0x1.44cb55149dbdfp+0, 0x1.43dd61f3d059ap+0,
     0x1.42fc428c7ef2fp+0, 0x1.2b581635da953p+0, 0x1.33332fc5919a3p+0,
     0x1.3333304b8829cp+0, 0x1.3333304b88316p+0, 0x1.3333304b88316p+0},
};

constexpr PinnedTransient kPinnedSkew = {
    3686, 3201,
    {0x1.fcaff18dd412cp-24, 0x1.fcaff189a5af1p-24, 0x1.fcaff18b8169ap-24,
     0x1.75fd3ed9bf4cdp-6, 0x1.3332cb6e47a86p+0, 0x1.33332d6870f5fp+0,
     0x1.33332d687784dp+0, 0x1.33332d6877856p+0, 0x1.33332d6877856p+0,
     0x1.33332d6877856p+0, 0x1.33332d6877856p+0, 0x1.33332d6877856p+0},
    {0x1.170e8ea5f525ap+0, 0x1.170e8ea5f525ap+0, 0x1.170e8ea5f525ap+0,
     0x1.af5fd94426617p-1, 0x1.3332f4e8df6dfp+0, 0x1.3333304b8437ep+0,
     0x1.3333304b8831dp+0, 0x1.3333304b8831fp+0, 0x1.3333304b8831fp+0,
     0x1.3333304b8831fp+0, 0x1.3333304b8831fp+0, 0x1.3333304b8831fp+0},
};

constexpr PinnedTransient kPinnedCrosstalk = {
    5491, 4001,
    {0x1.33332d68270aep+0, 0x1.33332d68270b9p+0, 0x1.33332d68270cp+0,
     0x1.33332d68270cp+0, 0x1.33332d68270cp+0, 0x1.33332d68270bap+0,
     0x1.3452275933117p+0, 0x1.be68d26608137p-11, 0x1.461f3b3e43463p-16,
     0x1.0fb8c10e1463bp-20, 0x1.210bd1cdf1f6cp-21, 0x1.1a7be7a5558ebp-21},
    {0x1.10be2832abb9dp-22, 0x1.10be284aeb585p-22, 0x1.10be284fd0ed3p-22,
     0x1.10be284fd0ed3p-22, 0x1.10be284fd0ed3p-22, 0x1.10be2884a02a6p-22,
     0x1.349fc8a79cb72p-4, 0x1.253a06c54e287p+0, 0x1.32d7f53778679p+0,
     0x1.3330d615968c7p+0, 0x1.333320dbbec55p+0, 0x1.33332ffec43d8p+0},
};

TEST(CsmDevicePath, PinnedNor2Fo2Transients) {
    const auto& s = ModelSuite::get();
    ModelLoadSpec load;
    load.fanout_count = 2;
    load.receiver = &s.inv_sis;
    spice::TranOptions topt;
    topt.tstop = 3.2e-9;
    topt.dt = 1e-12;

    const engine::HistoryStimulus hist =
        engine::nor2_history(HistoryCase::kFast10, s.tech.vdd);
    ModelCell history(s.nor_mcsm, {{"A", hist.a}, {"B", hist.b}}, load);
    expect_pinned(history.run(topt), history.out_node(),
                  history.internal_node(0), kPinnedHistory, "history");

    const engine::MisStimulus mis =
        engine::nor2_simultaneous_fall(s.tech.vdd, 1.0e-9, 80e-12, 30e-12);
    ModelCell skew(s.nor_mcsm, {{"A", mis.a}, {"B", mis.b}}, load);
    expect_pinned(skew.run(topt), skew.out_node(), skew.internal_node(0),
                  kPinnedSkew, "skew");
}

TEST(CsmDevicePath, PinnedCrosstalk) {
    // Rank-2 SIS drivers plus a NOR2 whose input caps load the nets.
    const auto& s = ModelSuite::get();
    ModelCrosstalk bench(s.inv_sis, s.nor_mcsm, engine::CrosstalkConfig{},
                         2.2e-9);
    spice::TranOptions topt;
    topt.tstop = 4.0e-9;
    topt.dt = 1e-12;
    expect_pinned(bench.run(topt), bench.nor_out(), bench.victim_net(),
                  kPinnedCrosstalk, "crosstalk");
}

// --- slot-resolved stamps vs the Stamper primitives ----------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Assembles every device of two identically built circuits through their
// virtual stamp(): `c` into a copy of its workspace's CSR matrix (same
// pattern id, so its CSM devices write the slots they resolved), `ref` into
// a freshly built matrix of the same layout but another pattern id (so its
// devices go through the Stamper primitives by node id). `ref` runs with
// step_id -1, which turns every per-step cache off, so a stale capacitance
// or companion pair on the slot side shows up too. Values and RHS must
// agree bit for bit.
void expect_slots_match_stamper(spice::Circuit& c, spice::Circuit& ref,
                                const char* what) {
    c.prepare();
    ref.prepare();
    const SparseMatrix& ws_matrix = c.workspace().csr_matrix();
    SparseMatrix slots = ws_matrix;
    SparseMatrix prims =
        spice::collect_mna_pattern(ref, /*include_gmin=*/true);
    ASSERT_EQ(slots.pattern_id(), ws_matrix.pattern_id()) << what;
    ASSERT_NE(prims.pattern_id(), slots.pattern_id()) << what;
    ASSERT_EQ(prims.size(), slots.size()) << what;
    for (std::size_t r = 0; r < slots.size(); ++r) {
        const auto a = slots.row_cols(r);
        const auto b = prims.row_cols(r);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << what << " row " << r;
    }
    spice::Stamper st_slots(c.node_count(), c.branch_total(), &slots);
    spice::Stamper st_prims(ref.node_count(), ref.branch_total(), &prims);

    // Node voltages around the supply range, nonzero trapezoidal currents.
    std::mt19937_64 rng(20080311);
    std::uniform_real_distribution<double> volt(-0.1, 1.3);
    std::uniform_real_distribution<double> amp(-1e-5, 1e-5);
    const auto n_x = static_cast<std::size_t>(c.node_count() +
                                              c.branch_total());
    auto voltages = [&] {
        std::vector<double> x(n_x);
        for (double& v : x) v = volt(rng);
        x[0] = 0.0;  // ground
        return x;
    };
    auto currents = [&] {
        std::vector<double> s(static_cast<std::size_t>(c.state_total()));
        for (double& v : s) v = amp(rng);
        return s;
    };

    auto assemble = [](spice::Circuit& circuit, spice::Stamper& st,
                       const spice::SimContext& ctx) {
        st.clear();
        for (const auto& dev : circuit.devices()) dev->stamp(st, ctx);
    };
    auto check = [&](const spice::SimContext& ctx, const char* step) {
        spice::SimContext uncached = ctx;
        uncached.step_id = -1;
        assemble(c, st_slots, ctx);
        assemble(ref, st_prims, uncached);
        const auto va = slots.values();
        const auto vb = prims.values();
        for (std::size_t k = 0; k < va.size(); ++k)
            EXPECT_EQ(bits(va[k]), bits(vb[k]))
                << what << " " << step << " slot " << k;
        for (std::size_t r = 0; r < st_slots.rhs().size(); ++r)
            EXPECT_EQ(bits(st_slots.rhs()[r]), bits(st_prims.rhs()[r]))
                << what << " " << step << " rhs " << r;
    };

    std::vector<double> x = voltages();
    std::vector<double> x_prev = voltages();
    std::vector<double> state = currents();
    spice::SimContext ctx;
    ctx.x = &x;
    ctx.x_prev = &x_prev;
    ctx.state = &state;
    ctx.time = 1e-10;

    ctx.mode = spice::SimContext::Mode::kDc;
    check(ctx, "dc");

    ctx.mode = spice::SimContext::Mode::kTran;
    ctx.step_id = 7;
    ctx.dt = 1e-12;
    ctx.integrator = spice::Integrator::kTrapezoidal;
    check(ctx, "trap");
    x = voltages();  // next Newton iterate, same step
    check(ctx, "trap, second iterate");
    ctx.dt = 0.5e-12;  // a retry at a smaller step under the same step id
    check(ctx, "trap, dt halved");
    ctx.integrator = spice::Integrator::kBackwardEuler;
    check(ctx, "backward Euler");

    x_prev = voltages();  // the next step
    state = currents();
    ctx.step_id = 8;
    check(ctx, "backward Euler, next step");
    ctx.integrator = spice::Integrator::kTrapezoidal;
    check(ctx, "trap, next step");
}

TEST(CsmDevicePath, SlotResolvedStampsMatchStamperPath) {
    const auto& s = ModelSuite::get();
    const engine::HistoryStimulus hist =
        engine::nor2_history(HistoryCase::kFast10, s.tech.vdd);
    ModelLoadSpec load;
    load.fanout_count = 2;
    load.receiver = &s.inv_sis;
    ModelCell cell(s.nor_mcsm, {{"A", hist.a}, {"B", hist.b}}, load);
    ModelCell cell_ref(s.nor_mcsm, {{"A", hist.a}, {"B", hist.b}}, load);
    expect_slots_match_stamper(cell.circuit(), cell_ref.circuit(),
                               "NOR2 FO2");

    // Input caps on, NOR2 pin B on ground: the ground terms resolve to -1
    // slots and are skipped.
    ModelCrosstalk xtalk(s.inv_sis, s.nor_mcsm, engine::CrosstalkConfig{},
                         2.2e-9);
    ModelCrosstalk xtalk_ref(s.inv_sis, s.nor_mcsm,
                             engine::CrosstalkConfig{}, 2.2e-9);
    expect_slots_match_stamper(xtalk.circuit(), xtalk_ref.circuit(),
                               "crosstalk");
}

}  // namespace
}  // namespace mcsm::core

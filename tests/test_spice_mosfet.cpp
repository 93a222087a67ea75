// MOSFET model tests: I-V properties, symmetry, body effect, capacitances,
// and inverter-level behaviour of the 130nm-class card.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "spice/tran_solver.h"
#include "tech/tech130.h"
#include "wave/edges.h"
#include "wave/metrics.h"

namespace mcsm::spice {
namespace {

using mcsm::tech::Technology;
using mcsm::tech::make_tech130;

class MosfetModel : public ::testing::Test {
protected:
    MosfetModel() : tech_(make_tech130()) {}

    // Declared before the devices: their constructors read the card
    // (default junction geometry from ldiff).
    Technology tech_;
    // Standalone device for direct model evaluation (not added to a circuit).
    Mosfet nmos_{"MN", 1, 2, 3, 0, tech_.nmos, 0.52e-6, 0.13e-6};
    Mosfet pmos_{"MP", 1, 2, 3, 0, tech_.pmos, 1.04e-6, 0.13e-6};
};

TEST_F(MosfetModel, CurrentIsZeroAtZeroVds) {
    for (double vg = 0.0; vg <= 1.2; vg += 0.2) {
        const MosCurrent c = nmos_.evaluate_current(0.6, vg, 0.6, 0.0);
        EXPECT_NEAR(c.ids, 0.0, 1e-15) << "vg=" << vg;
    }
}

TEST_F(MosfetModel, DrainSourceSymmetry) {
    // Swapping drain and source negates the current (needed for the stack
    // node, which charges through a device in the "reverse" direction).
    for (double vg = 0.3; vg <= 1.2; vg += 0.3) {
        const MosCurrent fwd = nmos_.evaluate_current(0.8, vg, 0.2, 0.0);
        const MosCurrent rev = nmos_.evaluate_current(0.2, vg, 0.8, 0.0);
        EXPECT_NEAR(fwd.ids, -rev.ids, std::fabs(fwd.ids) * 1e-9);
    }
}

TEST_F(MosfetModel, OnCurrentInPlausibleRange) {
    // 130nm-class unit NMOS on-current: order of 0.1-1 mA.
    const MosCurrent c = nmos_.evaluate_current(1.2, 1.2, 0.0, 0.0);
    EXPECT_GT(c.ids, 5e-5);
    EXPECT_LT(c.ids, 2e-3);
    // Subthreshold current is orders of magnitude lower.
    const MosCurrent off = nmos_.evaluate_current(1.2, 0.0, 0.0, 0.0);
    EXPECT_LT(off.ids, c.ids * 1e-3);
    EXPECT_GT(off.ids, 0.0);
}

TEST_F(MosfetModel, CurrentMonotonicInVgs) {
    double prev = -1.0;
    for (double vg = 0.0; vg <= 1.3; vg += 0.05) {
        const double i = nmos_.evaluate_current(1.2, vg, 0.0, 0.0).ids;
        EXPECT_GT(i, prev);
        prev = i;
    }
}

TEST_F(MosfetModel, CurrentMonotonicInVds) {
    double prev = -1.0;
    for (double vd = 0.0; vd <= 1.3; vd += 0.05) {
        const double i = nmos_.evaluate_current(vd, 1.2, 0.0, 0.0).ids;
        EXPECT_GE(i, prev);
        prev = i;
    }
}

TEST_F(MosfetModel, BodyEffectRaisesThreshold) {
    // With source lifted above bulk, the same vgs delivers less current.
    const double i_no_body = nmos_.evaluate_current(1.2, 0.8, 0.0, 0.0).ids;
    const double i_body = nmos_.evaluate_current(1.6, 1.2, 0.4, 0.0).ids;
    EXPECT_LT(i_body, i_no_body);
    EXPECT_GT(i_body, 0.1 * i_no_body);  // effect is moderate, not a cutoff
}

TEST_F(MosfetModel, DerivativesMatchFiniteDifferences) {
    const double h = 1e-7;
    const struct {
        double vd, vg, vs, vb;
    } points[] = {{1.2, 1.2, 0.0, 0.0}, {0.6, 0.8, 0.1, 0.0},
                  {0.05, 1.0, 0.0, 0.0}, {1.0, 0.25, 0.3, 0.0},
                  {0.2, 0.9, 0.8, 0.0}};
    for (const auto& p : points) {
        const MosCurrent c = nmos_.evaluate_current(p.vd, p.vg, p.vs, p.vb);
        const double fd_gm =
            (nmos_.evaluate_current(p.vd, p.vg + h, p.vs, p.vb).ids -
             nmos_.evaluate_current(p.vd, p.vg - h, p.vs, p.vb).ids) /
            (2 * h);
        const double fd_gds =
            (nmos_.evaluate_current(p.vd + h, p.vg, p.vs, p.vb).ids -
             nmos_.evaluate_current(p.vd - h, p.vg, p.vs, p.vb).ids) /
            (2 * h);
        const double fd_gms =
            (nmos_.evaluate_current(p.vd, p.vg, p.vs + h, p.vb).ids -
             nmos_.evaluate_current(p.vd, p.vg, p.vs - h, p.vb).ids) /
            (2 * h);
        const double fd_gmb =
            (nmos_.evaluate_current(p.vd, p.vg, p.vs, p.vb + h).ids -
             nmos_.evaluate_current(p.vd, p.vg, p.vs, p.vb - h).ids) /
            (2 * h);
        const double scale = std::max(1e-6, std::fabs(c.ids));
        EXPECT_NEAR(c.gm, fd_gm, 1e-4 * scale + 1e-9);
        EXPECT_NEAR(c.gds, fd_gds, 1e-4 * scale + 1e-9);
        EXPECT_NEAR(c.gms, fd_gms, 1e-4 * scale + 1e-9);
        EXPECT_NEAR(c.gmb, fd_gmb, 1e-4 * scale + 1e-9);
    }
}

TEST_F(MosfetModel, PmosMirrorsNmos) {
    // A PMOS with source at VDD and gate at 0 conducts (drain below source).
    const MosCurrent on = pmos_.evaluate_current(0.0, 0.0, 1.2, 1.2);
    EXPECT_LT(on.ids, -5e-5);  // current flows source->drain, i.e. ids < 0
    const MosCurrent off = pmos_.evaluate_current(0.0, 1.2, 1.2, 1.2);
    EXPECT_GT(std::fabs(on.ids), std::fabs(off.ids) * 1e3);
}

TEST_F(MosfetModel, CapsPositiveAndRegionDependent) {
    // Cutoff: gate-bulk dominates. Strong inversion: gate-channel dominates.
    const MosCaps off = nmos_.evaluate_caps(1.2, 0.0, 0.0, 0.0);
    const MosCaps sat = nmos_.evaluate_caps(1.2, 1.2, 0.0, 0.0);
    const MosCaps triode = nmos_.evaluate_caps(0.05, 1.2, 0.0, 0.0);
    for (const MosCaps& c : {off, sat, triode}) {
        EXPECT_GT(c.cgs, 0.0);
        EXPECT_GT(c.cgd, 0.0);
        EXPECT_GE(c.cgb, 0.0);
        EXPECT_GT(c.cdb, 0.0);
        EXPECT_GT(c.csb, 0.0);
    }
    EXPECT_GT(off.cgb, sat.cgb);      // channel screens the bulk when on
    EXPECT_GT(sat.cgs, off.cgs);      // inversion charge at the source side
    EXPECT_GT(triode.cgd, sat.cgd);   // drain side only inverted in triode
    // Junction cap shrinks with reverse bias.
    const MosCaps rev = nmos_.evaluate_caps(1.2, 0.0, 0.0, 0.0);
    const MosCaps zero = nmos_.evaluate_caps(0.0, 0.0, 0.0, 0.0);
    EXPECT_LT(rev.cdb, zero.cdb);
}

// --- circuit-level --------------------------------------------------------

class InverterFixture : public ::testing::Test {
protected:
    InverterFixture() : tech_(make_tech130()) {}

    // Builds an inverter driven by `input_spec`, loaded by cl farads.
    void build(SourceSpec input_spec, double cl) {
        vdd_ = circuit_.node("vdd");
        in_ = circuit_.node("in");
        out_ = circuit_.node("out");
        circuit_.add_vsource("VDD", vdd_, Circuit::kGround,
                             SourceSpec::dc(tech_.vdd));
        circuit_.add_vsource("VIN", in_, Circuit::kGround, std::move(input_spec));
        circuit_.add_mosfet("MN", out_, in_, Circuit::kGround, Circuit::kGround,
                            tech_.nmos, tech_.wn_unit, tech_.lmin);
        circuit_.add_mosfet("MP", out_, in_, vdd_, vdd_, tech_.pmos,
                            tech_.wp_unit, tech_.lmin);
        if (cl > 0.0)
            circuit_.add_capacitor("CL", out_, Circuit::kGround, cl);
    }

    Technology tech_;
    Circuit circuit_;
    int vdd_ = -1;
    int in_ = -1;
    int out_ = -1;
};

TEST_F(InverterFixture, DcTransferCurveIsInverting) {
    build(SourceSpec::dc(0.0), 0.0);
    DcOptions opt;
    DcResult r = solve_dc(circuit_, opt);
    EXPECT_NEAR(r.node_voltage(out_), tech_.vdd, 0.02);

    // Sweep the input with warm starts; output must fall monotonically.
    double prev_out = r.node_voltage(out_) + 1e-9;
    for (double vin = 0.0; vin <= 1.2 + 1e-9; vin += 0.05) {
        circuit_.vsource("VIN").set_spec(SourceSpec::dc(vin));
        r = solve_dc(circuit_, opt, &r.x);
        const double vout = r.node_voltage(out_);
        EXPECT_LT(vout, prev_out + 1e-7) << "vin=" << vin;
        prev_out = vout;
    }
    EXPECT_NEAR(prev_out, 0.0, 0.02);
}

TEST_F(InverterFixture, SwitchingThresholdNearMidRail) {
    build(SourceSpec::dc(0.6), 0.0);
    const DcResult r = solve_dc(circuit_);
    const double vout = r.node_voltage(out_);
    EXPECT_GT(vout, 0.2);
    EXPECT_LT(vout, 1.0);
}

TEST_F(InverterFixture, TransientInvertsARamp) {
    build(SourceSpec::pwl(wave::saturated_ramp(0.2e-9, 80e-12, 0.0, 1.2)),
          5e-15);
    TranOptions opt;
    opt.tstop = 1.5e-9;
    opt.dt = 1e-12;
    const TranResult r = solve_tran(circuit_, opt);
    const wave::Waveform vout = r.node_waveform(out_);
    EXPECT_NEAR(vout.at(0.0), 1.2, 0.02);
    EXPECT_NEAR(vout.last_value(), 0.0, 0.02);
}

TEST_F(InverterFixture, DelayGrowsWithLoad) {
    double prev_delay = 0.0;
    for (const double cl : {2e-15, 8e-15, 20e-15}) {
        Circuit fresh;
        circuit_ = std::move(fresh);
        build(SourceSpec::pwl(wave::saturated_ramp(0.2e-9, 80e-12, 0.0, 1.2)),
              cl);
        TranOptions opt;
        opt.tstop = 3e-9;
        opt.dt = 1e-12;
        const TranResult r = solve_tran(circuit_, opt);
        const wave::Waveform vin = r.node_waveform(in_);
        const wave::Waveform vout = r.node_waveform(out_);
        const auto d = wave::delay_50(vin, true, vout, false, tech_.vdd);
        ASSERT_TRUE(d.has_value()) << "cl=" << cl;
        EXPECT_GT(*d, prev_delay);
        prev_delay = *d;
    }
    // Heaviest load should still switch within a couple of ns.
    EXPECT_LT(prev_delay, 1e-9);
}

}  // namespace
}  // namespace mcsm::spice

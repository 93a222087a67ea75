#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "wave/edges.h"

namespace perfbench {

using mcsm::serve::ServeOptions;
using mcsm::serve::TimingQuery;

namespace {

constexpr double kPs = 1e-12;
constexpr double kFf = 1e-15;

// Normalized 50%-crossing offset of pin p relative to pin 0 (the surface's
// skew coordinate, see serve/timing_service.h).
double normalized_offset(const TimingQuery& q, std::size_t p) {
    const double s0 = q.slews[0];
    const double sp = q.slews[p];
    const double k0 = q.skews.empty() ? 0.0 : q.skews[0];
    const double kp = q.skews.empty() ? 0.0 : q.skews[p];
    const double delta = kp - k0 + 0.5 * (sp - s0);
    return delta / (0.5 * (s0 + sp));
}

}  // namespace

TimingQuery QueryGen::next() {
    TimingQuery q;
    const int cls = std::uniform_int_distribution<int>(0, 99)(rng_);
    const bool mis3 = cls >= 85;
    const bool mis2 = !mis3 && cls >= 35;
    if (mis3) {
        q.cell = "NAND3";
        q.pins = {"A", "B", "C"};
    } else if (mis2) {
        q.cell = (rng_() & 1u) != 0 ? "NOR2" : "NAND2";
        q.pins = {"A", "B"};
    } else {
        q.cell = "INV_X1";
        q.pins = {"A"};
    }
    q.inputs_rise = (rng_() & 1u) != 0;
    const bool hull_escape =
        mis2 && std::uniform_int_distribution<int>(0, 9)(rng_) == 0;

    // Slews; per-pair ratios stay within 3.5 (the golden gate's envelope).
    // Out-of-hull queries use fast edges so the far skew stays short.
    const double slew_lo = mis3 ? 65 * kPs : 45 * kPs;
    const double slew_hi = mis3 ? 250 * kPs : hull_escape ? 100 * kPs
                                                          : 340 * kPs;
    q.slews.push_back(uniform(slew_lo, slew_hi));
    for (std::size_t p = 1; p < q.pins.size(); ++p) {
        const double lo = std::max(slew_lo, q.slews[0] / 3.5);
        const double hi = std::min(slew_hi, q.slews[0] * 3.5);
        q.slews.push_back(uniform(lo, hi));
    }

    // Skews: draw the normalized offset, convert to edge-start skews.
    if (q.pins.size() > 1) {
        q.skews.assign(q.pins.size(), 0.0);
        for (std::size_t p = 1; p < q.pins.size(); ++p) {
            double u = 0.0;
            if (hull_escape) {
                u = uniform(3.3, 4.2) * ((rng_() & 1u) != 0 ? 1.0 : -1.0);
            } else {
                const double range = mis3 ? 1.05 : 3.0;
                u = uniform(-range, range);
            }
            const double scale = 0.5 * (q.slews[0] + q.slews[p]);
            q.skews[p] = u * scale - 0.5 * (q.slews[p] - q.slews[0]);
        }
    }

    if (q.cell == "NOR2" && (rng_() & 1u) != 0) q.corner = derated_corner();

    if (std::uniform_int_distribution<int>(0, 99)(rng_) < 15) {
        q.load_cap = uniform(0.5 * kFf, 3 * kFf);
        q.c_near = uniform(0.5 * kFf, 4 * kFf);
        q.c_far = uniform(1 * kFf, 10 * kFf);
        q.r_wire = uniform(150.0, 1500.0);
    } else {
        q.load_cap = uniform(1.2 * kFf, 20 * kFf);
    }
    return q;
}

std::vector<TimingQuery> arc_probes() {
    struct Arc {
        const char* cell;
        std::vector<std::string> pins;
        bool corner;
    };
    const Arc arcs[] = {{"INV_X1", {"A"}, false},
                        {"NOR2", {"A", "B"}, false},
                        {"NAND2", {"A", "B"}, false},
                        {"NOR2", {"A", "B"}, true},
                        {"NAND3", {"A", "B", "C"}, false}};
    std::vector<TimingQuery> out;
    for (const Arc& a : arcs) {
        for (const bool rise : {true, false}) {
            TimingQuery q;
            q.cell = a.cell;
            q.pins = a.pins;
            q.inputs_rise = rise;
            q.slews.assign(a.pins.size(), 80 * kPs);
            if (a.pins.size() > 1) q.skews.assign(a.pins.size(), 0.0);
            q.load_cap = 4 * kFf;
            if (a.corner) q.corner = derated_corner();
            out.push_back(std::move(q));
        }
    }
    return out;
}

bool out_of_hull(const TimingQuery& q) {
    static const ServeOptions stock;
    if (q.pins.size() == 2) {
        const double u = normalized_offset(q, 1);
        return u < stock.skew_knots.front() || u > stock.skew_knots.back();
    }
    if (q.pins.size() == 3) {
        const double ub = normalized_offset(q, 1);
        const double uc = normalized_offset(q, 2);
        const double m = std::max(ub, uc);
        const double d = ub - uc;
        return m < stock.skew_knots_mis3.front() ||
               m > stock.skew_knots_mis3.back() ||
               d < stock.skew_pair_knots_mis3.front() ||
               d > stock.skew_pair_knots_mis3.back();
    }
    return false;
}

void ClassShares::add(const TimingQuery& q) {
    ++n_;
    pin1_ += q.pins.size() == 1;
    pin2_ += q.pins.size() == 2;
    pin3_ += q.pins.size() == 3;
    pi_ += q.has_pi_load();
    corner_ += !q.corner.nominal();
    hull_ += out_of_hull(q);
    exact_ += q.exact;
}

void ClassShares::report(Report& r) const {
    const double n = n_ == 0 ? 1.0 : static_cast<double>(n_);
    const std::pair<const char*, std::uint64_t> shares[] = {
        {"pin1", pin1_}, {"pin2", pin2_},   {"pin3", pin3_},
        {"pi", pi_},     {"corner", corner_}, {"out_of_hull", hull_},
        {"exact", exact_}};
    std::string line = "query mix (share of " + std::to_string(n_) + " sent):";
    for (const auto& [name, count] : shares) {
        const double share = static_cast<double>(count) / n;
        r.layer(std::string("gen.share.") + name, share, "ratio");
        char buf[48];
        std::snprintf(buf, sizeof buf, " %s %.3f", name, share);
        line += buf;
    }
    r.note(line);
}

mcsm::sta::GateNetlist make_network(int width, int depth, double vdd,
                                    std::uint64_t seed) {
    std::mt19937_64 gen(seed);
    std::uniform_int_distribution<int> cell_pick(0, 2);
    mcsm::sta::GateNetlist nl;
    const double t_edge = 1.0e-9;
    std::vector<std::string> prev;
    for (int w = 0; w < width; ++w) {
        std::string net = "pi";
        net += std::to_string(w);
        const bool rising = (w % 2) == 0;
        nl.add_primary_input(
            net, mcsm::wave::piecewise_edges(
                     rising ? 0.0 : vdd,
                     {{t_edge + 20e-12 * w, 100e-12, rising ? vdd : 0.0}}));
        prev.push_back(net);
    }
    int uid = 0;
    for (int layer = 0; layer < depth; ++layer) {
        std::vector<std::string> cur;
        for (int w = 0; w < width; ++w) {
            std::string out = "n";
            out += std::to_string(layer);
            out += '_';
            out += std::to_string(w);
            std::string name = "u";
            name += std::to_string(uid++);
            std::uniform_int_distribution<std::size_t> in_pick(
                0, prev.size() - 1);
            const int kind = cell_pick(gen);
            if (kind == 0) {
                nl.add_instance(
                    {name, "INV_X1", {{"A", prev[in_pick(gen)]}, {"OUT", out}}});
            } else {
                const std::string cell = kind == 1 ? "NAND2" : "NOR2";
                const std::size_t ia = in_pick(gen);
                std::size_t ib = in_pick(gen);
                if (ib == ia) ib = (ia + 1) % prev.size();  // distinct inputs
                nl.add_instance(
                    {name, cell, {{"A", prev[ia]}, {"B", prev[ib]}, {"OUT", out}}});
            }
            nl.set_wire_cap(out, 1e-15);
            cur.push_back(out);
        }
        prev = cur;
    }
    return nl;
}

}  // namespace perfbench

// Seeded input generator shared by the three workloads.
//
// The timing-query mix (lut_socket and exact_mixed) follows the scenario
// space the serve layer's golden gate validates:
//   * 35% 1-pin (INV_X1 A), 50% 2-pin (NOR2 / NAND2 A,B), 15% 3-pin
//     (NAND3 A,B,C); rise/fall 50/50;
//   * 15% RC pi loads, the rest lumped caps inside the load knot hull;
//   * half the NOR2 queries (1 in 8 overall) at the derated corner
//     (1.08 V, 85 C);
//   * 10% of the 2-pin queries (5% overall) with a normalized skew outside
//     the skew-knot hull, the rest inside it.
// The transient workload draws its NOR2 skews and its 48-gate network
// from the same seed.
#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "serve/timing_service.h"
#include "sta/netlist.h"

namespace perfbench {

// The derated corner of the NOR2 arcs.
inline mcsm::serve::Corner derated_corner() {
    return mcsm::serve::Corner{1.08, 85.0};
}

class QueryGen {
public:
    explicit QueryGen(std::uint64_t seed) : rng_(seed) {}
    mcsm::serve::TimingQuery next();

private:
    std::mt19937_64 rng_;
    double uniform(double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng_);
    }
};

// One LUT query per arc the mix touches (stock-knot probes): warming these
// builds (or pack-loads) every surface the traffic needs.
std::vector<mcsm::serve::TimingQuery> arc_probes();

// True when the query's normalized skew lies outside the stock skew-knot
// hull (the server then extrapolates along the skew axes).
bool out_of_hull(const mcsm::serve::TimingQuery& q);

// Realised share of each query class among the queries actually sent.
class ClassShares {
public:
    void add(const mcsm::serve::TimingQuery& q);
    // Writes gen.share.* layer metrics and one detail line.
    void report(Report& r) const;

private:
    std::uint64_t n_ = 0, pin1_ = 0, pin2_ = 0, pin3_ = 0, pi_ = 0,
                  corner_ = 0, hull_ = 0, exact_ = 0;
};

// Layered INV_X1/NAND2/NOR2 network, `width` nets per layer and `depth`
// layers, each gate's cell and inputs drawn from the seed.
mcsm::sta::GateNetlist make_network(int width, int depth, double vdd,
                                    std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H

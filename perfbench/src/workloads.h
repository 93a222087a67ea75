// The three workloads. Each one sets itself up (timed, several times),
// measures for Args::seconds, checks the program's outputs, and fills the
// Report: end-to-end roles, its named figures and, in traced runs, the
// per-layer numbers derived from the benchmark's spans.
//
// A traced run splits the measuring time in two halves: the first runs with
// tracing off and gives the end-to-end numbers, the second records spans;
// the traced-minus-untraced difference of each end-to-end role is reported
// as the tracing overhead.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "common.h"
#include "core/model.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace perfbench {

// Workload-uniform end-to-end roles (see perfbench/README.md for what each
// one means on each workload). Times in seconds.
struct Roles {
    double setup_s = 0.0;
    double fast_p50 = 0.0;
    double fast_tail = 0.0;
    double ref_p50 = 0.0;
    double ref_tail = 0.0;
};

// Writes the roles (medians and set-up as end-to-end metrics, tails as
// layer metrics) and, when `traced` is given, the tracing overhead of each
// as a layer metric.
void report_roles(Report& r, const Roles& untraced, const Roles* traced);

// Per-layer span figures shared by every workload: <module>.self_ms for
// each module that has spans. Also writes the span CSV to `csv_path`.
void report_span_layers(Report& r, const std::string& csv_path);

// Counter value from an obs snapshot (0 when absent).
long long obs_counter(const mcsm::obs::Snapshot& s, const std::string& name);

// Obs deltas between two snapshots: spice.steps_rejected / refactors /
// jacobian_reuses per transient (solver.tran.*), and
// serve.surface_hit_ratio.
void report_obs_deltas(Report& r, const mcsm::obs::Snapshot& before,
                       const mcsm::obs::Snapshot& after);

// net.batches / rejected / parse_errors / batch_size_mean.
void report_net_counters(Report& r, const mcsm::net::NetServer::Counters& c);

// Traced runs: net.parse_ns / net.render_ns, parse_query_line over `lines`
// and append_result_line over `results` (spans around the loops).
void measure_net_codec(Report& r, const std::vector<std::string>& lines,
                       const std::vector<mcsm::serve::TimingResult>& results);

// Layer micro-measurements, traced runs only (spans around the loops):
// lut.at_ns / lut.grad_ns on the NOR2 4-D i_out table at seeded in-range
// points, and spice.dc_sweep_ms on the NOR2 forced-node fixture (6^4
// points, the characterization sweep shape).
void measure_lut_layer(Report& r, const mcsm::core::CsmModel& nor2,
                       std::uint64_t seed);
void measure_dc_sweep(Report& r, const mcsm::cells::CellLibrary& lib);

int run_lut_socket(const Args& a, Report& r);
int run_exact_mixed(const Args& a, Report& r);
int run_transient(const Args& a, Report& r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H

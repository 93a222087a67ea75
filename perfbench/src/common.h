// Shared pieces of the perfbench program: clocks, sample statistics, the
// metric report every workload fills, and the run fingerprint.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cells/library.h"
#include "tech/tech130.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

// Sample set with the summary the benchmark reports for every timing: the
// median and the highest percentile that still has at least ten samples
// beyond it (p99.9, p99, p95, p90, p75 or p50, whichever the count allows).
class Samples {
public:
    void add(double v) {
        v_.push_back(v);
        sorted_ = false;
    }
    const std::vector<double>& values() const { return v_; }
    // Drops the samples, keeps the buffer.
    void clear() {
        v_.clear();
        sorted_ = false;
    }
    std::size_t count() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    double median() const { return quantile(0.5); }
    // Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
    double quantile(double q) const;
    // Highest percentile with >= 10 samples beyond it, and its value.
    double tail_pct() const;
    double tail() const { return quantile(tail_pct() / 100.0); }
    // "p50 <v> p<tail> <v> n=<count>" for the detail lines.
    std::string summary(double scale, const char* unit) const;

private:
    mutable std::vector<double> v_;
    mutable bool sorted_ = false;
    void sort() const;
};

// Samples split into consecutive time slices of one run. The reported
// figures are medians over slices of each slice's figure (its median, its
// tail -- the highest percentile with >= 10 samples beyond it inside the
// slice -- or its p99), so a few noisy seconds of a shared host do not set
// the run's numbers. next_slice() summarizes the newest slice and reuses
// its buffer, so memory does not grow with the run's throughput.
class SlicedSamples {
public:
    SlicedSamples() : open_(1), closed_(1) {}
    void add(double v) { add_to(open_.size() - 1, v); }
    void add_to(std::size_t slice, double v);
    void next_slice();
    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }
    double median() const;
    double tail() const;
    double p99() const;
    // Quantile over the samples of every slice not yet summarized (all of
    // them when next_slice() is never called).
    double pooled_quantile(double q) const;
    // "p50 <v> <unit>, p<pct> <v> <unit> (medians of <k> slices),
    // n=<count>".
    std::string summary(double scale, const char* unit) const;

private:
    struct Summary {
        std::size_t n = 0;
        double p50 = 0.0, tail = 0.0, tail_pct = 0.0, p99 = 0.0;
    };
    std::vector<Samples> open_;    // per slice; emptied once summarized
    std::vector<Summary> closed_;  // per slice; valid where n > 0
    std::size_t count_ = 0;
    static Summary summarize(const Samples& s);
    std::vector<Summary> summaries() const;
    double median_over(double Summary::*field) const;
};

// Median of a small vector (the repeated set-ups).
double median_of(std::vector<double> v);

// Everything a run reports. End-to-end metrics are the workload-uniform
// roles bounded in BENCHMARK.json; layer metrics are the per-layer numbers
// (plus each workload's named end-to-end figures) emitted by traced runs.
struct Metric {
    double value = 0.0;
    std::string unit;
};

class Report {
public:
    void e2e(const std::string& name, double value, const std::string& unit);
    void layer(const std::string& name, double value, const std::string& unit);
    // A free-form "# ..." detail line printed before the result.
    void note(const std::string& line);
    // Correctness check: counted into `failed` when it does not hold.
    void check(bool ok, const std::string& what);
    // Operation accounting for the result line.
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(std::uint64_t n = 1) { failed_ += n; }

    const std::map<std::string, Metric>& e2e() const { return e2e_; }
    const std::map<std::string, Metric>& layers() const { return layers_; }
    const std::vector<std::string>& notes() const { return notes_; }
    const std::vector<std::pair<std::string, bool>>& checks() const {
        return checks_;
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool all_checks_pass() const;

private:
    std::map<std::string, Metric> e2e_;
    std::map<std::string, Metric> layers_;
    std::vector<std::string> notes_;
    std::vector<std::pair<std::string, bool>> checks_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string source_id = "unknown";
    std::string work_dir = ".bench_build/perfbench-work";
};

// The library every workload characterizes against.
struct Lib {
    mcsm::tech::Technology tech = mcsm::tech::make_tech130();
    mcsm::cells::CellLibrary lib{tech};
};

// Peak resident set size of this process [MB].
double peak_rss_mb();

// Run fingerprint: CPU model, nproc, dispatched EKV kernel, build type,
// MCSM_* variables and the source id. Ordered key -> value.
std::vector<std::pair<std::string, std::string>> fingerprint(const Args& a);

// Minimal JSON string escaping.
std::string json_str(const std::string& s);
// Finite number with every digit (shortest round trip).
std::string json_num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H

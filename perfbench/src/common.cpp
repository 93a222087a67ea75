#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "spice/ekv_lanes.h"

extern char** environ;

namespace perfbench {

void Samples::sort() const {
    if (!sorted_) {
        std::sort(v_.begin(), v_.end());
        sorted_ = true;
    }
}

double Samples::quantile(double q) const {
    if (v_.empty()) return 0.0;
    sort();
    const double n = static_cast<double>(v_.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank < 1) rank = 1;
    if (rank > v_.size()) rank = v_.size();
    return v_[rank - 1];
}

double Samples::tail_pct() const {
    const double n = static_cast<double>(v_.size());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (n * (1.0 - p / 100.0) >= 10.0) return p;
    }
    return 50.0;
}

std::string Samples::summary(double scale, const char* unit) const {
    char buf[160];
    std::snprintf(buf, sizeof buf, "p50 %.4g %s, p%g %.4g %s, n=%zu",
                  median() * scale, unit, tail_pct(), tail() * scale, unit,
                  v_.size());
    return buf;
}

void SlicedSamples::add_to(std::size_t slice, double v) {
    if (slice >= open_.size()) {
        open_.resize(slice + 1);
        closed_.resize(slice + 1);
    }
    open_[slice].add(v);
    ++count_;
}

void SlicedSamples::next_slice() {
    const std::size_t last = open_.size() - 1;
    closed_[last] = summarize(open_[last]);
    Samples buffer = std::move(open_[last]);
    buffer.clear();
    open_[last] = Samples{};
    open_.push_back(std::move(buffer));
    closed_.emplace_back();
}

double SlicedSamples::pooled_quantile(double q) const {
    Samples all;
    for (const Samples& s : open_) {
        for (const double v : s.values()) all.add(v);
    }
    return all.quantile(q);
}

SlicedSamples::Summary SlicedSamples::summarize(const Samples& s) {
    Summary out;
    out.n = s.count();
    if (out.n == 0) return out;
    out.p50 = s.median();
    out.tail = s.tail();
    out.tail_pct = s.tail_pct();
    out.p99 = s.quantile(0.99);
    return out;
}

// Slices with fewer samples than this do not count when enough others
// have them.
constexpr std::size_t kMinSlice = 20;

std::vector<SlicedSamples::Summary> SlicedSamples::summaries() const {
    std::vector<Summary> all;
    for (std::size_t i = 0; i < open_.size(); ++i) {
        const Summary s = closed_[i].n > 0 ? closed_[i] : summarize(open_[i]);
        if (s.n > 0) all.push_back(s);
    }
    std::vector<Summary> big;
    for (const Summary& s : all) {
        if (s.n >= kMinSlice) big.push_back(s);
    }
    return big.empty() ? all : big;
}

double SlicedSamples::median_over(double Summary::*field) const {
    std::vector<double> v;
    for (const Summary& s : summaries()) v.push_back(s.*field);
    return median_of(v);
}

double SlicedSamples::median() const { return median_over(&Summary::p50); }
double SlicedSamples::tail() const { return median_over(&Summary::tail); }
double SlicedSamples::p99() const { return median_over(&Summary::p99); }

std::string SlicedSamples::summary(double scale, const char* unit) const {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "p50 %.4g %s, p%g %.4g %s (medians of %zu slices), n=%zu",
                  median() * scale, unit, median_over(&Summary::tail_pct),
                  tail() * scale, unit, summaries().size(), count_);
    return buf;
}

double median_of(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
    e2e_[name] = Metric{value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
    layers_[name] = Metric{value, unit};
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::check(bool ok, const std::string& what) {
    checks_.emplace_back(what, ok);
    attempt();
    if (!ok) fail();
}

bool Report::all_checks_pass() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const auto& c) { return c.second; });
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::string v = line.substr(colon + 1);
                v.erase(0, v.find_first_not_of(' '));
                return v;
            }
        }
    }
    return "unknown";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> fingerprint(const Args& a) {
    std::vector<std::pair<std::string, std::string>> fp;
    fp.emplace_back("cpu", cpu_model());
    fp.emplace_back("nproc",
                    std::to_string(std::thread::hardware_concurrency()));
    fp.emplace_back("ekv_kernel", mcsm::spice::ekv_lane_kernel_name());
#ifdef PERFBENCH_BUILD_TYPE
    fp.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
#else
    fp.emplace_back("build_type", "unknown");
#endif
    std::string env;
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("MCSM_", 0) == 0) {
            if (!env.empty()) env += ' ';
            env += kv;
        }
    }
    fp.emplace_back("mcsm_env", env.empty() ? "-" : env);
    fp.emplace_back("source", a.source_id);
    return fp;
}

std::string json_str(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

}  // namespace perfbench

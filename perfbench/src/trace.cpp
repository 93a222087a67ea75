#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint32_t> t_stack;
}  // namespace

Tracer& Tracer::get() {
    static Tracer t;
    return t;
}

std::uint32_t Tracer::open(const char* name, std::uint64_t trace_id,
                           std::uint32_t count) {
    SpanRecord s;
    s.name = name;
    s.parent = t_stack.empty() ? 0 : t_stack.back();
    s.count = count;
    s.trace_id = trace_id;
    s.start_ns = now_ns();
    std::uint32_t id = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(s);
        id = static_cast<std::uint32_t>(spans_.size());
    }
    t_stack.push_back(id);
    return id;
}

void Tracer::close(std::uint32_t id) {
    const std::int64_t end = now_ns();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_[id - 1].end_ns = end;
    }
    if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

std::size_t Tracer::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void Tracer::add(const char* name, std::uint64_t trace_id,
                 std::int64_t start_ns, std::int64_t end_ns,
                 std::uint32_t count) {
    SpanRecord s;
    s.name = name;
    s.count = count;
    s.trace_id = trace_id;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
}

std::map<std::string, Tracer::NameStats> Tracer::by_name() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> child_ns(spans_.size() + 1, 0.0);
    for (const SpanRecord& s : spans_) {
        if (s.parent != 0)
            child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
    std::map<std::string, NameStats> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        NameStats& st = out[s.name];
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        st.spans += 1;
        st.calls += s.count;
        st.total_ns += dur;
        st.self_ns += dur - child_ns[i + 1];
    }
    return out;
}

std::map<std::string, double> Tracer::self_ns_by_module() const {
    std::map<std::string, double> out;
    for (const auto& [name, st] : by_name()) {
        out[name.substr(0, name.find('.'))] += st.self_ns;
    }
    return out;
}

bool Tracer::write_csv(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,trace_id,name,start_ns,end_ns,count\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        std::fprintf(f, "%zu,%u,%llu,%s,%lld,%lld,%u\n", i + 1, s.parent,
                     static_cast<unsigned long long>(s.trace_id), s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.count);
    }
    return std::fclose(f) == 0;
}

}  // namespace perfbench

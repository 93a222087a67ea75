// The benchmark's own span recorder, used only by traced runs (--trace 1).
//
// A span brackets one call the benchmark makes into a program layer: its
// name is "<module>.<call>" (net.roundtrip, serve.run_batch, lut.at, ...),
// it has a start, an end, the id of the span it was opened inside, and a
// trace id that every span of one query or simulation shares. Tight
// micro-loops (lut.at, net.parse, spice.assemble, ...) get one span around
// the loop whose `count` says how many calls it covers.
//
// Spans are kept in memory and written out as CSV when the run ends.
// Recording is thread-safe; nesting follows each thread's own call stack.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
    const char* name = nullptr;  // string literal, "<module>.<call>"
    std::uint32_t parent = 0;    // 1-based index of the enclosing span; 0 none
    std::uint32_t count = 1;     // calls covered by this span
    std::uint64_t trace_id = 0;  // shared by the spans of one query
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

class Tracer {
public:
    static Tracer& get();

    // Toggled only while no other thread records.
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    // Opens a span under the innermost open span; returns its 1-based id.
    std::uint32_t open(const char* name, std::uint64_t trace_id,
                       std::uint32_t count);
    void close(std::uint32_t id);
    // Records a finished span measured elsewhere (e.g. a socket round trip
    // whose start and end were taken by the poll loop); no parent.
    void add(const char* name, std::uint64_t trace_id, std::int64_t start_ns,
             std::int64_t end_ns, std::uint32_t count = 1);

    struct NameStats {
        std::uint64_t spans = 0;
        std::uint64_t calls = 0;  // sum of counts
        double total_ns = 0.0;
        double self_ns = 0.0;
        double ns_per_call() const {
            return calls == 0 ? 0.0 : total_ns / static_cast<double>(calls);
        }
    };
    // Per span name: counts, total and self time (duration minus the time
    // covered by direct children).
    std::map<std::string, NameStats> by_name() const;
    // Self time summed per module (the name's prefix before the first '.').
    std::map<std::string, double> self_ns_by_module() const;

    std::size_t size() const;
    bool write_csv(const std::string& path) const;

private:
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;  // guarded by mutex_
};

// RAII span; free when tracing is off.
class Span {
public:
    explicit Span(const char* name, std::uint64_t trace_id = 0,
                  std::uint32_t count = 1) {
        Tracer& t = Tracer::get();
        if (t.enabled()) id_ = t.open(name, trace_id, count);
    }
    ~Span() {
        if (id_ != 0) Tracer::get().close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::uint32_t id_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H

// The benchmark's socket client: connections driven by one thread with
// poll(2), response accounting and the bitwise result comparison.
#ifndef PERFBENCH_CLIENT_H
#define PERFBENCH_CLIENT_H

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "common.h"
#include "net/client.h"
#include "serve/timing_service.h"

namespace perfbench {

// One request waiting for its response on a connection.
struct Inflight {
    std::uint64_t id = 0;       // 1-based per-connection response id
    std::size_t item = 0;       // index into the workload's request pool
    std::int64_t start_ns = 0;  // send (closed loop) or due (open loop) time
};

class Conn {
public:
    explicit Conn(const std::string& unix_path);
    int fd() const { return cli_.fd(); }
    // Appends one request line; the next flush() sends it.
    void queue(std::string_view line, std::size_t item, std::int64_t start_ns);
    // Sends what the socket takes without blocking; true when all is out.
    bool flush();
    bool want_write() const { return !wbuf_.empty(); }
    // Reads what is available; returns false on EOF or error. Complete
    // lines are handed to on_line(line, recv_ns) in arrival order.
    template <class F>
    bool read_lines(F&& on_line);

    std::deque<Inflight>& inflight() { return inflight_; }

private:
    mcsm::net::LineClient cli_;
    std::string wbuf_;
    std::string rbuf_;
    std::size_t rpos_ = 0;
    std::uint64_t next_id_ = 1;
    std::deque<Inflight> inflight_;
    bool recv_some(std::int64_t& recv_ns);
};

template <class F>
bool Conn::read_lines(F&& on_line) {
    std::int64_t recv_ns = 0;
    const bool open = recv_some(recv_ns);
    for (;;) {
        const std::size_t nl = rbuf_.find('\n', rpos_);
        if (nl == std::string::npos) break;
        on_line(std::string_view(rbuf_).substr(rpos_, nl - rpos_), recv_ns);
        rpos_ = nl + 1;
    }
    if (rpos_ > 0) {
        rbuf_.erase(0, rpos_);
        rpos_ = 0;
    }
    return open;
}

// Per-phase response accounting (gen.<phase>.{sent,ok,err,busy,mismatch}).
struct PhaseCounts {
    std::uint64_t sent = 0, ok = 0, err = 0, busy = 0, mismatch = 0;
    std::uint64_t failed() const { return err + busy + mismatch; }
    void report(Report& r, const std::string& phase) const;
};

// Bitwise equality of two results (validity, path, delay and slew bits).
bool same_bits(const mcsm::serve::TimingResult& a,
               const mcsm::serve::TimingResult& b);

// Classifies one response line against the expected result and counts it.
// Returns false when the line is not the expected response id.
bool account_response(std::string_view line, std::uint64_t expect_id,
                      const mcsm::serve::TimingResult& want,
                      PhaseCounts& counts);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H

#include "client.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "net/query_text.h"

namespace perfbench {

Conn::Conn(const std::string& unix_path)
    : cli_(mcsm::net::LineClient::connect_unix(unix_path)) {}

void Conn::queue(std::string_view line, std::size_t item,
                 std::int64_t start_ns) {
    wbuf_.append(line);
    wbuf_ += '\n';
    inflight_.push_back(Inflight{next_id_++, item, start_ns});
}

bool Conn::flush() {
    while (!wbuf_.empty()) {
        const ssize_t n = ::send(cli_.fd(), wbuf_.data(), wbuf_.size(),
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
            wbuf_.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
        throw mcsm::ModelError(std::string("perfbench: send failed: ") +
                               std::strerror(errno));
    }
    return true;
}

bool Conn::recv_some(std::int64_t& recv_ns) {
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::recv(cli_.fd(), buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
            recv_ns = now_ns();
            rbuf_.append(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof buf) return true;
            continue;
        }
        if (n == 0) return false;
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
    }
}

void PhaseCounts::report(Report& r, const std::string& phase) const {
    const std::string p = "gen." + phase + ".";
    r.layer(p + "sent", static_cast<double>(sent), "count");
    r.layer(p + "ok", static_cast<double>(ok), "count");
    r.layer(p + "err", static_cast<double>(err), "count");
    r.layer(p + "busy", static_cast<double>(busy), "count");
    r.layer(p + "mismatch", static_cast<double>(mismatch), "count");
    r.note(phase + ": sent " + std::to_string(sent) + ", ok " +
           std::to_string(ok) + ", err " + std::to_string(err) + ", busy " +
           std::to_string(busy) + ", mismatch " + std::to_string(mismatch) +
           ", missing " +
           std::to_string(sent - ok - err - busy - mismatch));
}

bool same_bits(const mcsm::serve::TimingResult& a,
               const mcsm::serve::TimingResult& b) {
    return a.valid == b.valid && a.path == b.path &&
           std::memcmp(&a.delay, &b.delay, sizeof a.delay) == 0 &&
           std::memcmp(&a.slew, &b.slew, sizeof a.slew) == 0;
}

bool account_response(std::string_view line, std::uint64_t expect_id,
                      const mcsm::serve::TimingResult& want,
                      PhaseCounts& counts) {
    std::uint64_t id = 0;
    mcsm::serve::TimingResult got;
    try {
        got = mcsm::net::parse_result_line(line, id);
    } catch (const mcsm::ModelError&) {
        ++counts.err;
        return false;
    }
    if (id != expect_id) {
        ++counts.mismatch;
        return false;
    }
    if (!got.valid) {
        if (got.error.find("busy") != std::string::npos) {
            ++counts.busy;
        } else {
            ++counts.err;
        }
    } else if (!same_bits(got, want)) {
        ++counts.mismatch;
    } else {
        ++counts.ok;
    }
    return true;
}

}  // namespace perfbench

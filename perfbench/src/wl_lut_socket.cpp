// lut_socket: warm LUT serving over a unix socket, closed loop. What an STA
// tool pays per query against a deployed daemon.
//
// An untimed pre-step characterizes INV_X1 (1-pin), NOR2/NAND2 (2-pin),
// NAND3 (3-pin) and NOR2 at the derated corner, builds their surfaces at
// stock knots and bundles everything into one MCSMMAP3 pack (cached next
// to the binary that built it). Set-up then maps the pack, stands up a
// 2-thread TimingService and a NetServer, and answers one probe per arc.
// Two connections each keep 256 queries in flight, driven by one client
// thread with poll(2). Between socket slices the same parsed queries run
// in process through run_batch in 512-query chunks: the bitwise reference
// for every socket response and the in-process baseline.
//
// Roles: fast = one LUT query over the socket (send -> response),
// ref = in-process run_batch time per query at the same fan-out.
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "client.h"
#include "gen.h"
#include "net/query_text.h"
#include "net/server.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = mcsm::serve;
namespace net = mcsm::net;

constexpr std::size_t kPool = 16384;
constexpr std::size_t kChunk = 512;
constexpr std::size_t kInflight = 256;
constexpr std::size_t kConns = 2;
constexpr std::size_t kFanout = 2;
constexpr int kSetupReps = 5;
constexpr double kSlice = 0.5;  // socket seconds between in-process passes
constexpr int kRefPasses = 8;   // in-process passes over the pool per slice

// Identity of the running binary: a pack built by another build is stale.
std::string binary_stamp() {
    std::error_code ec;
    const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
    if (ec) return "unknown";
    const auto size = fs::file_size(exe, ec);
    const auto mtime = fs::last_write_time(exe, ec).time_since_epoch().count();
    return exe.string() + ":" + std::to_string(size) + ":" +
           std::to_string(mtime);
}

// Untimed pre-step: the pack the daemon serves from.
std::string ensure_pack(const Lib& L, const Args& a, Report& r) {
    const std::string pack = a.work_dir + "/lut_socket.mcsmpack";
    const std::string stamp_path = pack + ".stamp";
    const std::string stamp = binary_stamp();
    {
        std::FILE* f = std::fopen(stamp_path.c_str(), "r");
        if (f != nullptr) {
            char buf[4096] = {};
            const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
            std::fclose(f);
            if (std::string(buf, n) == stamp && fs::exists(pack)) return pack;
        }
    }
    // Built in a child process so the pre-step's memory does not count
    // into this run's peak RSS.
    const auto t0 = Clock::now();
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw mcsm::ModelError("perfbench: fork failed");
    if (pid == 0) {
        int status = 0;
        try {
            const std::string tmp = a.work_dir + "/lut_socket.build";
            fs::remove_all(tmp);
            fs::create_directories(tmp + "/models");
            fs::create_directories(tmp + "/surfaces");
            {
                serve::RepositoryOptions ro;
                ro.dir = tmp + "/models";
                serve::ModelRepository repo(&L.lib, ro);
                serve::ServeOptions so;
                so.surface_dir = tmp + "/surfaces";
                serve::TimingService service(repo, so);
                for (const auto& res : service.run_batch(arc_probes()))
                    if (!res.valid) status = 1;
            }
            if (status == 0) {
                serve::pack_from_dirs(tmp + "/models", tmp + "/surfaces")
                    .write(pack);
            }
            fs::remove_all(tmp);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: pack pre-step: %s\n", e.what());
            status = 1;
        }
        std::_Exit(status);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw mcsm::ModelError("perfbench: pack pre-step failed");
    if (std::FILE* f = std::fopen(stamp_path.c_str(), "w")) {
        std::fputs(stamp.c_str(), f);
        std::fclose(f);
    }
    r.note("pack pre-step (untimed, child process): built " + pack + " in " +
           std::to_string(seconds_since(t0)) + " s");
    return pack;
}

struct Stack {
    std::shared_ptr<serve::PackHost> pack;
    std::unique_ptr<serve::ModelRepository> repo;
    std::unique_ptr<serve::TimingService> service;
    std::unique_ptr<net::NetServer> server;
    // Tears down in dependency order (server -> service -> repo -> pack).
    void clear() {
        server.reset();
        service.reset();
        repo.reset();
        pack.reset();
    }
};

// A slice is one socket slice plus the in-process passes after it.
struct Measured {
    SlicedSamples socket_lat;  // per query [s]
    SlicedSamples ref_per_q;   // per query, per 512-query chunk [s]
    double socket_s = 0.0;
    double ref_s = 0.0;
    std::uint64_t ref_queries = 0;
};

}  // namespace

int run_lut_socket(const Args& a, Report& r) {
    const Lib L;
    const std::string pack_path = ensure_pack(L, a, r);
    const std::string sock = a.work_dir + "/lut_socket.sock";

    // --- set-up, several times; the last stack serves ---------------------
    const std::vector<serve::TimingQuery> probes = arc_probes();
    std::vector<double> setup, open_ms;
    long long pack_loads = 0;
    long long characterized = 0;
    Stack st;
    auto stand_up = [&](Stack& s) {
        const auto t0 = Clock::now();
        {
            Span sp("serve.PackHost");
            s.pack = std::make_shared<serve::PackHost>(pack_path);
        }
        const double open = seconds_since(t0);
        serve::RepositoryOptions ro;
        ro.pack = s.pack;
        s.repo = std::make_unique<serve::ModelRepository>(&L.lib, ro);
        serve::ServeOptions so;
        so.threads = kFanout;
        so.pack = s.pack;
        s.service = std::make_unique<serve::TimingService>(*s.repo, so);
        net::NetServerOptions no;
        no.unix_path = sock;
        no.pack = s.pack;
        s.server = std::make_unique<net::NetServer>(*s.service, no);
        std::vector<serve::TimingResult> res;
        {
            Span sp("serve.TimingService.run_batch", 0, probes.size());
            res = s.service->run_batch(probes);
        }
        bool ok = true;
        for (const auto& x : res) ok = ok && x.valid;
        if (!ok) throw mcsm::ModelError("perfbench: set-up probe failed");
        return std::make_pair(seconds_since(t0), open);
    };
    for (int rep = 0; rep < kSetupReps; ++rep) {
        st.clear();  // tear the previous stack down first
        const auto b = mcsm::obs::snapshot();
        const auto [s, open] = stand_up(st);
        const auto e = mcsm::obs::snapshot();
        setup.push_back(s);
        open_ms.push_back(1e3 * open);
        pack_loads = obs_counter(e, "serve.surface.pack_loads") -
                     obs_counter(b, "serve.surface.pack_loads");
        characterized += obs_counter(e, "serve.model.characterize") -
                         obs_counter(b, "serve.model.characterize");
    }
    Roles traced;
    if (a.trace) {
        // One more stand-up with spans on; it becomes the serving stack.
        Tracer::get().set_enabled(true);
        st.clear();
        traced.setup_s = stand_up(st).first;
        Tracer::get().set_enabled(false);
    }
    r.check(characterized == 0, "lut_socket: the pack serves every model "
                                "(no characterization on miss)");
    Roles untraced;
    untraced.setup_s = median_of(setup);
    r.layer("serve.pack_open_ms", median_of(open_ms), "ms");
    r.layer("serve.surface.pack_loads", static_cast<double>(pack_loads),
            "count");

    // --- inputs: seeded query lines, parsed back for the reference -------
    QueryGen gen(a.seed);
    std::vector<std::string> lines(kPool);
    std::vector<serve::TimingQuery> parsed(kPool);
    bool parse_ok = true;
    for (std::size_t i = 0; i < kPool; ++i) {
        lines[i] = net::format_query_line(gen.next());
        parse_ok = net::parse_query_line(lines[i], parsed[i]) && parse_ok;
    }
    r.check(parse_ok, "lut_socket: every generated line parses");

    serve::TimingService& service = *st.service;
    std::vector<serve::TimingResult> ref(kPool);
    // One pass over the pool in 512-query chunks; only the run_batch calls
    // are timed, the bitwise comparison against the reference is not.
    auto ref_pass = [&](Measured* m, std::uint64_t pass) {
        for (std::size_t c = 0; c < kPool; c += kChunk) {
            std::vector<serve::TimingResult> out;
            const auto t0 = Clock::now();
            {
                Span sp("serve.TimingService.run_batch", pass * kPool + c,
                        kChunk);
                out = service.run_batch(
                    std::span<const serve::TimingQuery>(parsed).subspan(c,
                                                                        kChunk));
            }
            const double s = seconds_since(t0);
            if (m == nullptr) {
                std::copy(out.begin(), out.end(), ref.begin() + c);
                continue;
            }
            m->ref_per_q.add(s / kChunk);
            m->ref_s += s;
            m->ref_queries += kChunk;
            for (std::size_t i = 0; i < kChunk; ++i) {
                r.attempt();
                if (!same_bits(out[i], ref[c + i])) r.fail();
            }
        }
    };
    ref_pass(nullptr, 0);  // warm pass: the reference results
    std::size_t invalid = 0;
    for (const auto& x : ref) invalid += !x.valid;
    r.check(invalid == 0, "lut_socket: every in-process query is valid (" +
                              std::to_string(invalid) + " invalid)");

    std::thread loop([&] { st.server->run(); });
    std::vector<std::unique_ptr<Conn>> conns;
    for (std::size_t c = 0; c < kConns; ++c)
        conns.push_back(std::make_unique<Conn>(sock));

    PhaseCounts counts;
    std::vector<std::uint32_t> sends(kPool, 0);
    std::vector<std::size_t> next(kConns);
    for (std::size_t c = 0; c < kConns; ++c) next[c] = c * kPool / kConns;
    std::uint64_t seq = 0;
    bool conn_lost = false;

    // One socket slice: fill both pipelines, keep them full until `until`,
    // then drain.
    auto socket_slice = [&](Measured& m, double seconds) {
        const auto t0 = Clock::now();
        auto send_one = [&](std::size_t c) {
            const std::size_t item = next[c];
            next[c] = (next[c] + 1) % kPool;
            conns[c]->queue(lines[item], item, now_ns());
            ++sends[item];
            ++counts.sent;
        };
        for (std::size_t c = 0; c < kConns; ++c) {
            for (std::size_t i = 0; i < kInflight; ++i) send_one(c);
            conns[c]->flush();
        }
        bool refill = true;
        const bool traced = Tracer::get().enabled();
        std::size_t outstanding = kConns * kInflight;
        const auto hard_stop = t0 + std::chrono::duration<double>(seconds + 10);
        while (outstanding > 0 && !conn_lost && Clock::now() < hard_stop) {
            pollfd fds[kConns];
            for (std::size_t c = 0; c < kConns; ++c) {
                fds[c].fd = conns[c]->fd();
                fds[c].events = static_cast<short>(
                    POLLIN | (conns[c]->want_write() ? POLLOUT : 0));
                fds[c].revents = 0;
            }
            if (::poll(fds, kConns, 100) < 0) continue;
            if (refill && seconds_since(t0) >= seconds) refill = false;
            for (std::size_t c = 0; c < kConns; ++c) {
                if ((fds[c].revents & POLLOUT) != 0) conns[c]->flush();
                if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                    continue;
                auto& q = conns[c]->inflight();
                const bool open = conns[c]->read_lines(
                    [&](std::string_view line, std::int64_t t_recv) {
                        if (q.empty()) {
                            ++counts.err;
                            return;
                        }
                        const Inflight f = q.front();
                        q.pop_front();
                        --outstanding;
                        account_response(line, f.id, ref[f.item], counts);
                        m.socket_lat.add(1e-9 *
                                         static_cast<double>(t_recv - f.start_ns));
                        if (traced)
                            Tracer::get().add("net.roundtrip", ++seq,
                                              f.start_ns, t_recv);
                        if (refill) {
                            send_one(c);
                            ++outstanding;
                        }
                    });
                conns[c]->flush();
                if (!open) conn_lost = true;
            }
        }
        m.socket_s += seconds_since(t0);
    };

    auto measure = [&](double seconds, Measured& m, std::uint64_t pass0) {
        const auto t0 = Clock::now();
        std::uint64_t pass = pass0;
        bool first = true;
        do {
            if (!first) {
                m.socket_lat.next_slice();
                m.ref_per_q.next_slice();
            }
            first = false;
            socket_slice(m, kSlice);
            for (int p = 0; p < kRefPasses; ++p) ref_pass(&m, ++pass);
        } while (seconds_since(t0) < seconds && !conn_lost);
    };

    const auto obs0 = mcsm::obs::snapshot();
    Measured mu;
    measure(a.trace ? a.seconds / 2 : a.seconds, mu, 0);
    const auto obs1 = mcsm::obs::snapshot();
    untraced.fast_p50 = mu.socket_lat.median();
    untraced.fast_tail = mu.socket_lat.tail();
    untraced.ref_p50 = mu.ref_per_q.median();
    untraced.ref_tail = mu.ref_per_q.tail();

    Measured mt;
    if (a.trace) {
        Tracer::get().set_enabled(true);
        measure(a.seconds / 2, mt, 1000);
        traced.fast_p50 = mt.socket_lat.median();
        traced.fast_tail = mt.socket_lat.tail();
        traced.ref_p50 = mt.ref_per_q.median();
        traced.ref_tail = mt.ref_per_q.tail();
    }

    st.server->stop();
    loop.join();
    conns.clear();
    const net::NetServer::Counters nc = st.server->counters();

    r.check(!conn_lost, "lut_socket: both connections stayed open");
    const std::uint64_t missing =
        counts.sent - counts.ok - counts.err - counts.busy - counts.mismatch;
    r.attempt(counts.sent);
    r.fail(counts.failed() + missing);
    r.check(counts.failed() + missing == 0,
            "lut_socket: every socket response is bitwise equal to the "
            "in-process run_batch, in per-connection id order");
    counts.report(r, "lut");
    ClassShares shares;
    for (std::size_t i = 0; i < kPool; ++i)
        for (std::uint32_t k = 0; k < sends[i]; ++k) shares.add(parsed[i]);
    shares.report(r);

    const double lut_qps = static_cast<double>(mu.socket_lat.count()) /
                           mu.socket_s;
    const double batch_qps = static_cast<double>(mu.ref_queries) / mu.ref_s;
    r.layer("lut_qps", lut_qps, "q/s");
    r.layer("lut_batch_qps", batch_qps, "q/s");
    r.layer("lut_p50_us", 1e6 * mu.socket_lat.median(), "us");
    r.layer("lut_p99_us", 1e6 * mu.socket_lat.p99(), "us");
    r.note("lut socket latency: " + mu.socket_lat.summary(1e6, "us") +
           "; in-process per query: " + mu.ref_per_q.summary(1e9, "ns"));
    r.note("lut_qps " + std::to_string(lut_qps) + ", lut_batch_qps " +
           std::to_string(batch_qps));
    report_net_counters(r, nc);
    report_obs_deltas(r, obs0, obs1);

    if (!a.trace) {
        report_roles(r, untraced, nullptr);
        return 0;
    }

    // --- traced-only layer measurements -----------------------------------
    measure_net_codec(r, lines, ref);
    double one_thread_ns = 0.0;
    {
        serve::ServeOptions so;
        so.threads = 1;
        so.pack = st.pack;
        serve::TimingService single(*st.repo, so);
        (void)single.run_batch(probes);
        const auto t0 = Clock::now();
        for (std::size_t c = 0; c < kPool; c += kChunk) {
            Span sp("serve.TimingService.run_batch.1t", c, kChunk);
            (void)single.run_batch(
                std::span<const serve::TimingQuery>(parsed).subspan(c, kChunk));
        }
        one_thread_ns = 1e9 * seconds_since(t0) / kPool;
    }
    r.layer("serve.lut_1t_ns", one_thread_ns, "ns");
    const double fan_ns = 1e9 * mt.ref_s / static_cast<double>(mt.ref_queries);
    r.layer("serve.fanout_eff", one_thread_ns / (kFanout * fan_ns), "ratio");
    {
        const auto nor = st.repo->get(
            serve::ModelKey::arc("NOR2", {"A", "B"}));
        measure_lut_layer(r, *nor, a.seed);
    }
    report_roles(r, untraced, &traced);
    report_span_layers(r, a.work_dir + "/trace-lut_socket.csv");
    return 0;
}

}  // namespace perfbench

// exact_mixed: open-loop mixed serving from a cold start. Exact queries run
// the CSM transient (spice + core) on the server's event-loop thread, so
// head-of-line stalls show in the LUT and ping tails.
//
// Set-up is cold: a fresh in-memory ModelRepository characterizes every
// model on miss and the service builds every surface the traffic touches
// (no surface_dir, no pack). Traffic is a seeded Poisson schedule sent by
// one client thread over three connections: 20 000 LUT q/s, 200 exact q/s
// (same mix generator, `exact` set) and 100 ping/s. Latency counts from
// each request's due time; the generator's own lateness is reported and a
// run whose generator fell behind is marked invalid.
//
// Roles: fast = one LUT query (due -> response), ref = one exact query
// (due -> response).
#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <memory>
#include <random>
#include <thread>

#include "client.h"
#include "gen.h"
#include "net/query_text.h"
#include "net/server.h"
#include "serve/repository.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = mcsm::serve;
namespace net = mcsm::net;

constexpr std::size_t kLutPool = 16384;
constexpr std::size_t kExactPool = 256;
constexpr double kLutRate = 20000.0;
constexpr double kExactRate = 200.0;
constexpr double kPingRate = 100.0;
constexpr std::size_t kFanout = 2;
constexpr int kSetupReps = 3;
// A run whose generator sent its p99 request later than this after its due
// time is invalid: the offered load was not the scheduled one.
constexpr double kLateLimit = 1e-3;
constexpr double kSliceSec = 1.5;

enum Kind : std::uint8_t { kLut = 0, kExact = 1, kPing = 2 };

struct Event {
    std::int64_t due_ns = 0;  // offset from the schedule start
    Kind kind = kLut;
    std::uint32_t item = 0;
};

std::vector<Event> schedule(double seconds, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<Event> ev;
    const std::pair<Kind, double> streams[] = {
        {kLut, kLutRate}, {kExact, kExactRate}, {kPing, kPingRate}};
    for (const auto& [kind, rate] : streams) {
        std::exponential_distribution<double> gap(rate);
        const std::size_t pool = kind == kLut     ? kLutPool
                                 : kind == kExact ? kExactPool
                                                  : 1;
        double t = gap(rng);
        std::uint32_t item = 0;
        while (t < seconds) {
            ev.push_back(Event{static_cast<std::int64_t>(t * 1e9), kind, item});
            item = static_cast<std::uint32_t>((item + 1) % pool);
            t += gap(rng);
        }
    }
    std::sort(ev.begin(), ev.end(), [](const Event& x, const Event& y) {
        return x.due_ns < y.due_ns;
    });
    return ev;
}

struct Stack {
    std::unique_ptr<serve::ModelRepository> repo;
    std::unique_ptr<serve::TimingService> service;
    std::unique_ptr<net::NetServer> server;
    void clear() {
        server.reset();
        service.reset();
        repo.reset();
    }
};

struct SetupTimes {
    double total_s = 0.0;
    std::map<std::string, double> char_ms;     // per model
    std::map<std::string, double> surface_ms;  // per pin count
};

// Latencies are sliced by due time (kSliceSec per tail slice).
struct Measured {
    SlicedSamples lut, exact, ping;  // [s]
    Samples late;                    // [s]
    PhaseCounts counts[3];
};

}  // namespace

int run_exact_mixed(const Args& a, Report& r) {
    const Lib L;
    const std::string sock = a.work_dir + "/exact_mixed.sock";
    // Precise ppoll wake-ups for the open-loop schedule.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

    // --- cold set-up, several times; the last stack serves ---------------
    const std::vector<serve::TimingQuery> probes = arc_probes();
    Stack st;
    auto stand_up = [&](Stack& s) {
        SetupTimes t;
        const auto t0 = Clock::now();
        s.repo = std::make_unique<serve::ModelRepository>(
            &L.lib, serve::RepositoryOptions{});
        serve::ServeOptions so;
        so.threads = kFanout;
        s.service = std::make_unique<serve::TimingService>(*s.repo, so);
        net::NetServerOptions no;
        no.unix_path = sock;
        s.server = std::make_unique<net::NetServer>(*s.service, no);
        for (const serve::TimingQuery& q : probes) {
            const serve::ModelKey key = serve::ModelKey::arc(q.cell, q.pins,
                                                             q.corner);
            if (!s.repo->cached(key)) {
                const auto tc = Clock::now();
                {
                    Span sp("core.characterize");
                    (void)s.repo->get(key);
                }
                t.char_ms[q.corner.nominal() ? q.cell : q.cell + "_corner"] =
                    1e3 * seconds_since(tc);
            }
            const auto ts = Clock::now();
            serve::TimingResult res;
            {
                Span sp("serve.TimingService.run_one");
                res = s.service->run_one(q);
            }
            if (!res.valid)
                throw mcsm::ModelError("perfbench: set-up probe failed: " +
                                       res.error);
            t.surface_ms["pin" + std::to_string(q.pins.size())] +=
                1e3 * seconds_since(ts);
        }
        t.total_s = seconds_since(t0);
        return t;
    };
    std::vector<double> setup;
    std::map<std::string, std::vector<double>> char_ms, surface_ms;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        st.clear();
        const SetupTimes t = stand_up(st);
        setup.push_back(t.total_s);
        for (const auto& [k, v] : t.char_ms) char_ms[k].push_back(v);
        for (const auto& [k, v] : t.surface_ms) surface_ms[k].push_back(v);
    }
    Roles untraced, traced;
    if (a.trace) {
        Tracer::get().set_enabled(true);
        st.clear();
        traced.setup_s = stand_up(st).total_s;
        Tracer::get().set_enabled(false);
    }
    untraced.setup_s = median_of(setup);
    for (const auto& [k, v] : char_ms)
        r.layer("core.char_ms." + k, median_of(v), "ms");
    for (const auto& [k, v] : surface_ms)
        r.layer("serve.surface_build_ms." + k, median_of(v), "ms");

    // --- inputs and in-process references --------------------------------
    QueryGen gen(a.seed);
    std::vector<std::string> lut_lines(kLutPool), exact_lines(kExactPool);
    std::vector<serve::TimingQuery> lut_q(kLutPool), exact_q(kExactPool);
    bool parse_ok = true;
    for (std::size_t i = 0; i < kLutPool; ++i) {
        lut_lines[i] = net::format_query_line(gen.next());
        parse_ok = net::parse_query_line(lut_lines[i], lut_q[i]) && parse_ok;
    }
    for (std::size_t i = 0; i < kExactPool; ++i) {
        serve::TimingQuery q = gen.next();
        q.exact = true;
        exact_lines[i] = net::format_query_line(q);
        parse_ok = net::parse_query_line(exact_lines[i], exact_q[i]) && parse_ok;
    }
    r.check(parse_ok, "exact_mixed: every generated line parses");

    serve::TimingService& service = *st.service;
    const std::vector<serve::TimingResult> lut_ref = service.run_batch(lut_q);
    std::size_t invalid = 0;
    for (const auto& x : lut_ref) invalid += !x.valid;
    std::vector<serve::TimingResult> exact_ref(kExactPool);
    Samples exact_1t;
    double worst_err = 0.0;
    std::string worst_line;
    for (std::size_t i = 0; i < kExactPool; ++i) {
        const auto t0 = Clock::now();
        exact_ref[i] = service.run_one(exact_q[i]);
        exact_1t.add(seconds_since(t0));
        serve::TimingQuery twin = exact_q[i];
        twin.exact = false;
        const serve::TimingResult lut = service.run_one(twin);
        invalid += !exact_ref[i].valid + !lut.valid;
        if (exact_ref[i].valid && lut.valid) {
            const double bound =
                std::max(0.05 * std::fabs(exact_ref[i].delay), 2e-12);
            const double err =
                100.0 * std::fabs(lut.delay - exact_ref[i].delay) / bound;
            if (err > worst_err) {
                worst_err = err;
                worst_line = exact_lines[i];
            }
        }
    }
    r.check(invalid == 0, "exact_mixed: every in-process reference query is "
                          "valid (" + std::to_string(invalid) + " invalid)");
    // Reported, not gated: at stock knots the LUT path does not hold the
    // golden gate's bound (that gate runs on a denser grid), so a hard
    // check here would fail every run. The figure is deterministic per
    // seed; a change that moves it shows in the per-layer output.
    r.layer("lut_err_of_bound_pct", worst_err, "%");
    r.note(std::string(worst_err < 100.0 ? "[WITHIN] " : "[OVER] ") +
           "lut_err_of_bound_pct " + std::to_string(worst_err) +
           " % of the golden max(5%, 2 ps) delay bound (worst query: " +
           worst_line + ")");
    r.layer("serve.exact_ms", 1e3 * exact_1t.median(), "ms");

    // --- open-loop traffic -------------------------------------------------
    std::thread loop([&] { st.server->run(); });
    std::vector<std::unique_ptr<Conn>> conns;
    for (int c = 0; c < 3; ++c) conns.push_back(std::make_unique<Conn>(sock));
    std::vector<std::uint32_t> lut_sends(kLutPool, 0), exact_sends(kExactPool, 0);
    bool conn_lost = false;
    std::uint64_t seq = 0;

    auto measure = [&](double seconds, std::uint64_t sched_seed, Measured& m) {
        const std::vector<Event> ev = schedule(seconds, sched_seed);
        const bool traced_run = Tracer::get().enabled();
        const std::int64_t base = now_ns();
        const std::int64_t hard_stop =
            base + static_cast<std::int64_t>((seconds + 10.0) * 1e9);
        std::size_t idx = 0;
        std::size_t outstanding = 0;
        static const char* kSpan[3] = {"net.roundtrip.lut", "net.roundtrip.exact",
                                       "net.roundtrip.ping"};
        SlicedSamples* lat[3] = {&m.lut, &m.exact, &m.ping};
        while (!conn_lost) {
            std::int64_t now = now_ns();
            while (idx < ev.size() && base + ev[idx].due_ns <= now) {
                const Event& e = ev[idx++];
                const std::int64_t due = base + e.due_ns;
                const std::string_view line =
                    e.kind == kLut     ? std::string_view(lut_lines[e.item])
                    : e.kind == kExact ? std::string_view(exact_lines[e.item])
                                       : std::string_view("ping");
                conns[e.kind]->queue(line, e.item, due);
                if (e.kind == kLut) ++lut_sends[e.item];
                if (e.kind == kExact) ++exact_sends[e.item];
                ++m.counts[e.kind].sent;
                ++outstanding;
                m.late.add(1e-9 * static_cast<double>(now - due));
            }
            for (auto& c : conns) c->flush();
            if (idx == ev.size() && outstanding == 0) break;
            now = now_ns();
            if (now > hard_stop) break;
            pollfd fds[3];
            for (int c = 0; c < 3; ++c) {
                fds[c].fd = conns[c]->fd();
                fds[c].events = static_cast<short>(
                    POLLIN | (conns[c]->want_write() ? POLLOUT : 0));
                fds[c].revents = 0;
            }
            std::int64_t wait = idx < ev.size() ? base + ev[idx].due_ns - now
                                                : 50'000'000;
            wait = std::max<std::int64_t>(0, wait);
            const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                              static_cast<long>(wait % 1'000'000'000)};
            if (::ppoll(fds, 3, &ts, nullptr) <= 0) continue;
            for (int c = 0; c < 3; ++c) {
                if ((fds[c].revents & POLLOUT) != 0) conns[c]->flush();
                if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                    continue;
                auto& q = conns[c]->inflight();
                PhaseCounts& pc = m.counts[c];
                const bool open = conns[c]->read_lines(
                    [&](std::string_view line, std::int64_t t_recv) {
                        if (q.empty()) {
                            ++pc.err;
                            return;
                        }
                        const Inflight f = q.front();
                        q.pop_front();
                        --outstanding;
                        if (c == kPing) {
                            if (line == "pong") {
                                ++pc.ok;
                            } else {
                                ++pc.mismatch;
                            }
                        } else {
                            account_response(line, f.id,
                                             c == kLut ? lut_ref[f.item]
                                                       : exact_ref[f.item],
                                             pc);
                        }
                        const auto slice = static_cast<std::size_t>(
                            1e-9 * static_cast<double>(f.start_ns - base) /
                            kSliceSec);
                        lat[c]->add_to(slice,
                                       1e-9 * static_cast<double>(t_recv -
                                                                  f.start_ns));
                        if (traced_run)
                            Tracer::get().add(kSpan[c], ++seq, f.start_ns,
                                              t_recv);
                    });
                if (!open) conn_lost = true;
            }
        }
    };

    const auto obs0 = mcsm::obs::snapshot();
    Measured mu;
    measure(a.trace ? a.seconds / 2 : a.seconds, a.seed ^ 0x9e3779b9u, mu);
    const auto obs1 = mcsm::obs::snapshot();
    untraced.fast_p50 = mu.lut.median();
    untraced.fast_tail = mu.lut.tail();
    untraced.ref_p50 = mu.exact.median();
    untraced.ref_tail = mu.exact.tail();

    Measured mt;
    if (a.trace) {
        Tracer::get().set_enabled(true);
        measure(a.seconds / 2, a.seed ^ 0x7f4a7c15u, mt);
        traced.fast_p50 = mt.lut.median();
        traced.fast_tail = mt.lut.tail();
        traced.ref_p50 = mt.exact.median();
        traced.ref_tail = mt.exact.tail();
    }
    st.server->stop();
    loop.join();
    conns.clear();
    const net::NetServer::Counters nc = st.server->counters();

    // --- accounting and checks ---------------------------------------------
    r.check(!conn_lost, "exact_mixed: all three connections stayed open");
    const char* phase[3] = {"lut", "exact", "ping"};
    std::uint64_t bad = 0;
    for (int k = 0; k < 3; ++k) {
        PhaseCounts pc = mu.counts[k];
        pc.sent += mt.counts[k].sent;
        pc.ok += mt.counts[k].ok;
        pc.err += mt.counts[k].err;
        pc.busy += mt.counts[k].busy;
        pc.mismatch += mt.counts[k].mismatch;
        const std::uint64_t missing =
            pc.sent - pc.ok - pc.err - pc.busy - pc.mismatch;
        r.attempt(pc.sent);
        r.fail(pc.failed() + missing);
        bad += pc.failed() + missing;
        pc.report(r, phase[k]);
    }
    r.check(bad == 0, "exact_mixed: every response arrived, in id order, "
                      "bitwise equal to the in-process run_batch (LUT) or "
                      "run_one (exact)");
    ClassShares shares;
    for (std::size_t i = 0; i < kLutPool; ++i)
        for (std::uint32_t k = 0; k < lut_sends[i]; ++k) shares.add(lut_q[i]);
    for (std::size_t i = 0; i < kExactPool; ++i)
        for (std::uint32_t k = 0; k < exact_sends[i]; ++k)
            shares.add(exact_q[i]);
    shares.report(r);

    const double late_p99 = mu.late.quantile(0.99);
    const bool valid = late_p99 <= kLateLimit;
    r.layer("gen.late_p99_us", 1e6 * late_p99, "us");
    r.layer("gen.valid", valid ? 1.0 : 0.0, "count");
    r.note(std::string("generator lateness: ") + mu.late.summary(1e6, "us") +
           (valid ? "" : "  -> RUN INVALID: the generator fell behind "
                         "schedule (not a program failure)"));
    r.note("lut latency from due: " + mu.lut.summary(1e6, "us"));
    r.note("exact latency from due: " + mu.exact.summary(1e3, "ms"));
    r.note("ping latency from due: " + mu.ping.summary(1e6, "us"));
    r.layer("lut_p50_us", 1e6 * mu.lut.median(), "us");
    r.layer("lut_p99_us", 1e6 * mu.lut.pooled_quantile(0.99), "us");
    r.layer("exact_p50_ms", 1e3 * mu.exact.median(), "ms");
    r.layer("exact_p99_ms", 1e3 * mu.exact.pooled_quantile(0.99), "ms");
    r.layer("ping_p99_us", 1e6 * mu.ping.pooled_quantile(0.99), "us");
    report_net_counters(r, nc);
    report_obs_deltas(r, obs0, obs1);

    if (!a.trace) {
        report_roles(r, untraced, nullptr);
        return 0;
    }

    // --- traced-only layer measurements -----------------------------------
    measure_net_codec(r, lut_lines, lut_ref);
    measure_lut_layer(
        r, *st.repo->get(serve::ModelKey::arc("NOR2", {"A", "B"})), a.seed);
    measure_dc_sweep(r, L.lib);
    report_roles(r, untraced, &traced);
    report_span_layers(r, a.work_dir + "/trace-exact_mixed.csv");
    return 0;
}

}  // namespace perfbench

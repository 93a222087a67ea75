// Network timing daemon: the socket front end (net/server) over the full
// serving stack, plus the pack-store utilities that feed it. One binary
// covers the operational loop: build an mmap pack from a per-file store,
// serve it over unix/TCP sockets with micro-batching, hot-reload it in
// place, talk to a running daemon as a client (a batch file piped through
// --client), and run a self-checking demo sweep across the full scenario
// space (1/2/3-pin MIS arcs, linear and RC pi loads, Vdd/temp corners).
// Run with --help for the usage and the query grammar.
#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cells/library.h"
#include "net/client.h"
#include "net/query_text.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"
#include "serve/timing_service.h"
#include "tech/tech130.h"

using namespace mcsm;

namespace {

constexpr const char* kUsage = R"(timing_serverd -- socket timing server over an mmap'd model pack

Usage:
  timing_serverd [--unix <path>] [--port <n>] [serve options]
      Serve the line protocol (grammar below) on a unix socket and/or TCP
      loopback port. --port 0 binds an ephemeral port; the bound address
      is announced on stdout as "# listening unix=<path> tcp=<port>"
      before serving. SIGINT/SIGTERM flush the pending batch, drain
      responses and exit.

  timing_serverd --build-pack <pack> --model-dir <dir> [--surface-dir <dir>]
      Bundle a per-file binary store into one mmap-able pack file
      (published durably: fsync + rename) and exit.

  timing_serverd --client --unix <path> | --client --port <n>
      Pipe stdin (a batch file, one query or control line per line) to a
      running daemon and stream its responses to stdout (write side
      half-closes at EOF, so the daemon flushes the final batch). Sized
      for operational batches, not bulk transfers: input is sent before
      responses are read.

  timing_serverd --demo [--model-dir <dir>] [--surface-dir <dir>]
      Self-contained smoke run (also the CTest wiring): starts an
      in-process server on a unix socket and sends a built-in 660-query
      sweep (1/2/3-pin MIS arcs, RC pi loads, a 1.1 V / 85 degC corner)
      twice through a real client connection -- cold, then warm -- plus
      ping, flush, stats and a malformed line. Exits 1 when any sweep
      result is invalid. Prints the server counters and the
      observability snapshot (cache hit/miss counters, per-query latency
      percentiles) to stderr at exit. With the store flags, the
      characterized models and built surfaces are written there.

Serve options:
  --pack <path>        mmap pack served zero-parse (models + surfaces);
                       hot-reloadable
  --reload-ms <n>      poll the pack file for replacement every n ms
                       (a "reload" protocol line forces a check any time)
  --model-dir <dir>    per-file model store fallback; misses characterize
                       on demand and write back (corner models under
                       corner-suffixed keys)
  --surface-dir <dir>  per-file surface store fallback; cold surface
                       builds are persisted and reloaded by later runs
  --batch-max <n>      micro-batch size cap              (default 512)
  --linger-us <n>      micro-batch latency bound in us   (default 200)
  --max-pending <n>    admission cap; excess queries get "err <id> busy"
  --max-conns <n>      concurrent connection cap         (default 64)
  --threads <n>        TimingService batch fan-out       (default: cores)

Query line (whitespace-separated; '#' starts a comment):
  <cell> <pins> <rise|fall> <slews_ps> <skews_ps> <load_fF> [option...]

  <pins>      1-3 comma-separated switching pins (2-3 -> MIS arc served
              from a skew-aware surface)
  <slews_ps>  per-pin 0-100% input ramps [ps], comma-separated
  <skews_ps>  per-pin edge offsets [ps], comma-separated; a lone "0"
              means simultaneous switching for any pin count
  <load_fF>   lumped output load [fF]

  options (any order, after the load):
    pi=<c_near_fF>:<r_ohm>:<c_far_fF>   RC pi load on top of load_fF
    vdd=<V>                             supply corner (default: nominal)
    temp=<degC>                         temperature corner (default 25)
    exact                               force the transient path

  examples:
    NOR2 A,B fall 80,120 0,50 4
    NAND3 A,B,C rise 80,100,120 0,40,80 6 pi=1:300:4 vdd=1.1 temp=85
    INV_X1 A rise 100 0 2 exact

  A 3-pin arc is served from a 6-D surface ([slew_a, slew_b, slew_c,
  skew_b, skew_c, load]); its first (cold) query characterizes a 6-D model
  and runs one CSM transient per surface knot -- about 2k transients with
  the default knots, vs ~450 for a 2-pin arc -- so warm it offline and
  serve it from a pack, or persist surfaces via --surface-dir.

Control lines:
  ping    -> "pong"
  flush   -> execute the pending batch now
  stats   -> "stats <nbytes>" + the observability snapshot as JSON
  reload  -> re-check the pack file: "reload ok|noop <generation>"

Result lines (one per query, in the connection's submission order):
  ok <id> <delay_s> <slew_s> <lut|tran>
  err <id> <message...>
  <id> numbers a connection's query lines from 1; doubles are printed in
  shortest round-trip form.

Environment:
  MCSM_TRACE=<path>         capture a Chrome trace-event JSON of the run
                            (load in Perfetto / chrome://tracing); spans
                            cover batches, queries, characterizations and
                            SPICE solves.
  MCSM_TRACE_DETAIL=1       with MCSM_TRACE: also emit per-Newton-phase
                            spans (assemble/factor/solve) -- much larger.
  MCSM_OBS_JSON=<path>      --demo: write the observability snapshot
                            (counters, gauges, latency histograms) as JSON
                            at exit.
)";

net::NetServer* g_server = nullptr;

void install_signal_handlers() {
    // MSG_NOSIGNAL covers the server's own sends; SIG_IGN covers anything
    // else (a client CLI writing to a closed stdout pipe).
    std::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa{};
    // NetServer::stop() is one eventfd write -- async-signal-safe.
    sa.sa_handler = [](int) {
        if (g_server != nullptr) g_server->stop();
    };
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

struct Args {
    std::string unix_path;
    int port = -1;
    std::string pack;
    std::string build_pack;
    std::string model_dir;
    std::string surface_dir;
    long batch_max = 512;
    long linger_us = 200;
    long max_pending = 1 << 16;
    long max_conns = 64;
    long threads = 0;
    long reload_ms = 0;
    bool client = false;
    bool demo = false;
};

long parse_long(const std::string& value, const char* flag) {
    char* end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    require(end == value.c_str() + value.size() && !value.empty() && v >= 0,
            std::string("timing_serverd: bad value for ") + flag + ": " +
                value);
    return v;
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            require(i + 1 < argc,
                    "timing_serverd: " + arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else if (arg == "--unix") {
            a.unix_path = value();
        } else if (arg == "--port") {
            a.port = static_cast<int>(parse_long(value(), "--port"));
        } else if (arg == "--pack") {
            a.pack = value();
        } else if (arg == "--build-pack") {
            a.build_pack = value();
        } else if (arg == "--model-dir") {
            a.model_dir = value();
        } else if (arg == "--surface-dir") {
            a.surface_dir = value();
        } else if (arg == "--batch-max") {
            a.batch_max = parse_long(value(), "--batch-max");
        } else if (arg == "--linger-us") {
            a.linger_us = parse_long(value(), "--linger-us");
        } else if (arg == "--max-pending") {
            a.max_pending = parse_long(value(), "--max-pending");
        } else if (arg == "--max-conns") {
            a.max_conns = parse_long(value(), "--max-conns");
        } else if (arg == "--threads") {
            a.threads = parse_long(value(), "--threads");
        } else if (arg == "--reload-ms") {
            a.reload_ms = parse_long(value(), "--reload-ms");
        } else if (arg == "--client") {
            a.client = true;
        } else if (arg == "--demo") {
            a.demo = true;
        } else {
            std::fprintf(stderr, "timing_serverd: unknown flag %s\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    return a;
}

int run_build_pack(const Args& a) {
    require(!a.model_dir.empty() || !a.surface_dir.empty(),
            "timing_serverd: --build-pack needs --model-dir and/or "
            "--surface-dir");
    const serve::PackWriter writer =
        serve::pack_from_dirs(a.model_dir, a.surface_dir);
    require(writer.entry_count() > 0,
            "timing_serverd: store directories hold no pack-able entries");
    writer.write(a.build_pack);
    std::printf("# packed %zu entries into %s\n", writer.entry_count(),
                a.build_pack.c_str());
    return 0;
}

int run_client(const Args& a) {
    require(!a.unix_path.empty() || a.port >= 0,
            "timing_serverd: --client needs --unix or --port");
    net::LineClient client =
        !a.unix_path.empty() ? net::LineClient::connect_unix(a.unix_path)
                             : net::LineClient::connect_tcp(a.port);
    std::string input;
    std::string line;
    while (std::getline(std::cin, line)) {
        input += line;
        input += '\n';
    }
    client.send_text(input);
    // Half-close: the daemon sees EOF, flushes the final batch and closes
    // after draining -- the recv loop below then terminates cleanly.
    client.shutdown_write();
    for (;;) {
        try {
            line = client.recv_line();
        } catch (const ModelError&) {
            break;  // server closed after the drain
        }
        std::printf("%s\n", line.c_str());
    }
    return 0;
}

// Shared server scaffolding for daemon and demo mode.
struct ServerStack {
    tech::Technology tech = tech::make_tech130();
    cells::CellLibrary lib{tech};
    std::shared_ptr<serve::PackHost> pack;
    std::unique_ptr<serve::ModelRepository> repo;
    std::unique_ptr<serve::TimingService> service;
    std::unique_ptr<net::NetServer> server;

    ServerStack(const Args& a, const std::string& unix_path) {
        if (!a.pack.empty())
            pack = std::make_shared<serve::PackHost>(a.pack);

        serve::RepositoryOptions ropt;
        ropt.dir = a.model_dir;
        ropt.pack = pack;
        // Demo-grade characterize-on-miss settings: a production daemon
        // serves a pack/store characterized offline with the full
        // paper-faithful options.
        ropt.char_options.transient_caps = false;
        ropt.char_options.grid_points = 7;
        ropt.char_options_mis3.grid_points = 4;
        repo = std::make_unique<serve::ModelRepository>(&lib, ropt);

        serve::ServeOptions sopt;
        sopt.surface_dir = a.surface_dir;
        sopt.pack = pack;
        sopt.threads = static_cast<std::size_t>(a.threads);
        if (a.demo) {
            // Keep the demo's cold 3-pin surface small; real servers keep
            // the stock grid and amortize it through a pack or store.
            sopt.slew_knots_mis3 = {50e-12, 280e-12};
            sopt.skew_knots_mis3 = {-1.5, 0.0, 1.5};
            sopt.skew_pair_knots_mis3 = {-1.5, 0.0, 1.5};
            sopt.load_knots_mis3 = {2e-15, 20e-15};
        }
        service = std::make_unique<serve::TimingService>(*repo, sopt);

        net::NetServerOptions nopt;
        nopt.unix_path = unix_path;
        nopt.tcp_port = a.port;
        nopt.batch_max = static_cast<std::size_t>(a.batch_max);
        nopt.linger_us = a.linger_us;
        nopt.max_pending = static_cast<std::size_t>(a.max_pending);
        nopt.max_conns = static_cast<std::size_t>(a.max_conns);
        nopt.pack = pack;
        nopt.reload_poll_ms = a.reload_ms;
        server = std::make_unique<net::NetServer>(*service, nopt);
    }
};

void print_counters(const net::NetServer& server) {
    const net::NetServer::Counters c = server.counters();
    std::fprintf(stderr,
                 "# conns accepted=%llu refused=%llu; queries served=%llu "
                 "rejected=%llu parse_errors=%llu; batches=%llu\n",
                 static_cast<unsigned long long>(c.accepted),
                 static_cast<unsigned long long>(c.refused),
                 static_cast<unsigned long long>(c.served),
                 static_cast<unsigned long long>(c.rejected),
                 static_cast<unsigned long long>(c.parse_errors),
                 static_cast<unsigned long long>(c.batches));
}

int run_daemon(const Args& a) {
    require(!a.unix_path.empty() || a.port >= 0,
            "timing_serverd: need --unix and/or --port (or --demo)");
    ServerStack stack(a, a.unix_path);
    g_server = stack.server.get();
    std::printf("# listening unix=%s tcp=%d\n",
                a.unix_path.empty() ? "-" : a.unix_path.c_str(),
                stack.server->tcp_port());
    std::fflush(stdout);
    stack.server->run();
    g_server = nullptr;
    print_counters(*stack.server);
    return 0;
}

// The demo sweep: 600 1/2-pin queries over INV_X1, NOR2 and NAND2 with a
// slice of RC pi loads and a hot low-voltage corner, then a 3-pin MIS
// section (every combination of leading/lagging B and C edges through the
// NAND3 stack), small because its cold cost is a 6-D model
// characterization plus one transient per surface knot.
std::vector<serve::TimingQuery> demo_sweep() {
    std::vector<serve::TimingQuery> batch;
    for (int i = 0; i < 600; ++i) {
        serve::TimingQuery q;
        if (i % 3 == 0) {
            q.cell = "INV_X1";
            q.pins = {"A"};
            q.slews = {(30 + 12.0 * (i % 17)) * 1e-12};
        } else {
            q.cell = i % 3 == 1 ? "NOR2" : "NAND2";
            q.pins = {"A", "B"};
            q.slews = {(40 + 8.0 * (i % 13)) * 1e-12,
                       (50 + 9.0 * (i % 11)) * 1e-12};
            q.skews = {0.0, (static_cast<double>(i % 21) - 10.0) * 15e-12};
        }
        q.inputs_rise = (i % 2) == 1;
        q.load_cap = (2 + (i % 8)) * 1e-15;
        if (i % 7 == 3) {
            q.c_near = 1e-15;
            q.r_wire = 400.0 + 40.0 * (i % 9);
            q.c_far = (2 + (i % 5)) * 1e-15;
        }
        if (i % 5 == 2) q.corner = serve::Corner{1.1, 85.0};
        batch.push_back(q);
    }
    for (int i = 0; i < 60; ++i) {
        serve::TimingQuery q;
        q.cell = "NAND3";
        q.pins = {"A", "B", "C"};
        q.inputs_rise = true;  // NMOS stack discharge: the stack-effect arc
        q.slews = {(60 + 10.0 * (i % 9)) * 1e-12,
                   (70 + 12.0 * (i % 7)) * 1e-12,
                   (80 + 14.0 * (i % 5)) * 1e-12};
        q.skews = {0.0, (static_cast<double>(i % 7) - 3.0) * 30e-12,
                   (static_cast<double>(i % 11) - 5.0) * 20e-12};
        q.load_cap = (2 + (i % 6) * 3) * 1e-15;
        if (i % 4 == 1) {
            q.c_near = 1e-15;
            q.r_wire = 500.0;
            q.c_far = 4e-15;
        }
        batch.push_back(q);
    }
    return batch;
}

int run_demo(Args a) {
    // Everything in the working directory (CTest runs each test in its
    // own build dir). A small batch cap makes the sweep cross many
    // micro-batches and leaves a remainder for "flush" to execute.
    const std::string sock = "timing_serverd_demo.sock";
    a.batch_max = 8;
    a.linger_us = 1000;
    ServerStack stack(a, sock);
    g_server = stack.server.get();
    std::thread loop([&] { stack.server->run(); });

    int failures = 0;
    const auto expect = [&](bool ok, const std::string& what) {
        if (!ok) {
            ++failures;
            std::fprintf(stderr, "# demo FAIL: %s\n", what.c_str());
        }
    };
    try {
        net::LineClient client = net::LineClient::connect_unix(sock);
        expect(client.request("ping") == "pong", "ping/pong");

        const std::vector<serve::TimingQuery> sweep = demo_sweep();
        std::string lines;
        for (const serve::TimingQuery& q : sweep) {
            lines += net::format_query_line(q);
            lines += '\n';
        }
        lines += "flush\n";
        // Pass 1 is cold (characterize-on-miss + surface builds); pass 2
        // is the warm steady state with every arc surface cached.
        std::uint64_t next_id = 1;
        for (const char* pass : {"cold", "warm"}) {
            const auto t0 = std::chrono::steady_clock::now();
            client.send_text(lines);
            std::size_t invalid = 0;
            std::size_t misordered = 0;
            for (std::size_t i = 0; i < sweep.size(); ++i, ++next_id) {
                std::uint64_t id = 0;
                const serve::TimingResult r =
                    net::parse_result_line(client.recv_line(), id);
                if (id != next_id) ++misordered;
                if (!r.valid && invalid++ < 3)
                    std::fprintf(stderr, "# demo: query %zu (%s): %s\n", i,
                                 sweep[i].cell.c_str(), r.error.c_str());
            }
            const double ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
            std::fprintf(stderr,
                         "# demo %s pass: %zu queries in %.1f ms (%.0f "
                         "queries/sec, surfaces cached: %zu)\n",
                         pass, sweep.size(), ms,
                         1e3 * static_cast<double>(sweep.size()) / ms,
                         stack.service->surface_count());
            expect(invalid == 0 && misordered == 0,
                   std::string(pass) + " pass: " + std::to_string(invalid) +
                       " invalid and " + std::to_string(misordered) +
                       " out-of-order sweep result(s)");
        }

        client.send_line("not a query at all");
        client.send_line("flush");
        std::uint64_t id = 0;
        expect(!net::parse_result_line(client.recv_line(), id).valid &&
                   id == next_id,
               "malformed line reported as error");
        const std::string stats = client.request("stats");
        expect(stats.rfind("stats ", 0) == 0, "stats header");
        const std::size_t nbytes = static_cast<std::size_t>(
            std::strtoull(stats.c_str() + 6, nullptr, 10));
        const std::string json = client.recv_bytes(nbytes);
        expect(json.find("serve.query.lut") != std::string::npos,
               "stats json carries serve counters");
    } catch (const std::exception& e) {
        ++failures;
        std::fprintf(stderr, "# demo FAIL: %s\n", e.what());
    }

    stack.server->stop();
    loop.join();
    g_server = nullptr;
    print_counters(*stack.server);
    std::fputs(obs::snapshot().format_human().c_str(), stderr);
    if (const char* json_path = std::getenv("MCSM_OBS_JSON")) {
        if (obs::write_snapshot_json(json_path))
            std::fprintf(stderr, "# wrote obs snapshot %s\n", json_path);
        else
            std::fprintf(stderr, "# cannot write obs snapshot %s\n",
                         json_path);
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    install_signal_handlers();
    const Args args = parse_args(argc, argv);
    try {
        if (!args.build_pack.empty()) return run_build_pack(args);
        if (args.client) return run_client(args);
        if (args.demo) return run_demo(args);
        return run_daemon(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "timing_serverd: %s\n", e.what());
        return 1;
    }
}

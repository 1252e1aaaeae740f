// pathalg_serve — the concurrent query server (src/server): a shared
// GraphCatalog + process-wide plan cache underneath one session per
// client, speaking the line protocol of server/session.h.
//
// Usage:
//   pathalg_serve                          # Figure 1 graph, stdin/stdout
//   pathalg_serve --graph "social persons=200 seed=7"
//   pathalg_serve --csv graph.csv          # graph from a CSV file
//   pathalg_serve --port 7687              # TCP: concurrent clients on
//                                          # loopback (0 = kernel-picked,
//                                          # printed to stderr)
//   pathalg_serve --max-sessions 8         # admission gate; clients over
//                                          # the limit get one BUSY line
//   pathalg_serve --min-ok 3               # exit 1 unless >= 3 queries
//                                          # answered OK (CI smoke gate)
//   pathalg_serve --threads 4              # parallel operator evaluation
//                                          # (0 = hardware concurrency)
//   pathalg_serve --snapshot <file.snap>   # graph from a binary snapshot
//                                          # (mmap'd, storage/)
//   pathalg_serve --snapshot-dir cache/    # persist generator graphs as
//                                          # snapshots; later starts mmap
//                                          # them instead of rebuilding
//   pathalg_serve --mutation-dir live/     # graphs become mutable: !mutate
//                                          # journals to disk (fsync),
//                                          # compaction publishes base
//                                          # snapshots, restart recovers
//                                          # the last acknowledged version
//   pathalg_serve --default-deadline-ms 50 # per-query wall-clock deadline
//                                          # every session starts with
//                                          # (sessions adjust via
//                                          # !deadline <ms>|off)
//   pathalg_serve --drain-deadline-ms 500  # graceful-stop budget: how
//                                          # long SIGTERM lets in-flight
//                                          # queries finish before
//                                          # cancelling them
//   pathalg_serve --fault-inject 'seed=7;snapshot-read=1'
//                                          # deterministic fault injection
//                                          # (common/fault_injection.h);
//                                          # robustness testing only
//
// SIGTERM/SIGINT in TCP mode trigger a graceful drain: the intake
// closes, in-flight queries get --drain-deadline-ms to finish (then are
// cooperatively cancelled), and live !record captures flush.
//
// Examples:
//   printf 'MATCH ANY SHORTEST TRAIL p = (x)-[:Knows+]->(y)\n!stats\n'
//     | pathalg_serve
//   pathalg_serve --port 7687 &  then:  nc localhost 7687  (several at once)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#ifdef __unix__
#include <signal.h>  // NOLINT — sigwait/pthread_sigmask need the POSIX header
#endif

#include "common/fault_injection.h"
#include "server/session.h"
#include "server/tcp_server.h"

using namespace pathalg;  // NOLINT — example brevity

namespace {

int Fail(const char* msg) {
  std::fprintf(stderr, "pathalg_serve: %s\n", msg);
  return 1;
}

/// stdin mode: one ServerSession over the same stack as a TCP connection,
/// so !record / !limits / !threads work identically when piped.
int ServePipe(server::SessionManager& manager, size_t min_ok) {
  Result<std::unique_ptr<server::ServerSession>> session = manager.Open();
  if (!session.ok()) return Fail(session.status().ToString().c_str());
  server::ServerSession& s = **session;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::string response;
    const bool keep_going = s.HandleLine(line, &response);
    std::cout << response << std::flush;
    if (!keep_going) break;
  }
  const server::ServeResult& result = s.result();
  std::fprintf(stderr, "session done: %zu requests, %zu ok, %zu errors\n",
               result.requests, result.ok, result.errors);
  if (result.ok < min_ok) {
    std::fprintf(stderr,
                 "pathalg_serve: only %zu OK answers (< --min-ok %zu)\n",
                 result.ok, min_ok);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_spec;
  std::string snapshot_dir;
  std::string mutation_dir;
  std::string fault_spec;
  int port = -1;
  size_t min_ok = 0;
  size_t threads = 1;
  size_t max_sessions = 8;
  size_t default_deadline = 0;   // ms; 0 = none
  size_t drain_deadline = 2000;  // ms
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_size = [&](const char* what, size_t* out) {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "pathalg_serve: %s needs a number\n", what);
        return false;
      }
      char* end = nullptr;
      long parsed = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 0) {
        std::fprintf(stderr,
                     "pathalg_serve: %s must be a non-negative integer\n",
                     what);
        return false;
      }
      *out = static_cast<size_t>(parsed);
      return true;
    };
    if (arg == "--graph") {
      const char* v = next();
      if (v == nullptr) return Fail("--graph needs a spec");
      graph_spec = v;
    } else if (arg == "--csv") {
      const char* v = next();
      if (v == nullptr) return Fail("--csv needs a path");
      graph_spec = std::string("csv ") + v;
    } else if (arg == "--snapshot") {
      const char* v = next();
      if (v == nullptr) return Fail("--snapshot needs a path");
      graph_spec = std::string("snapshot ") + v;
    } else if (arg == "--snapshot-dir") {
      const char* v = next();
      if (v == nullptr) return Fail("--snapshot-dir needs a directory");
      snapshot_dir = v;
    } else if (arg == "--mutation-dir") {
      const char* v = next();
      if (v == nullptr) return Fail("--mutation-dir needs a directory");
      mutation_dir = v;
    } else if (arg == "--port") {
      size_t value = 0;
      if (!next_size("--port", &value)) return 1;
      if (value > 65535) {
        return Fail("--port must be an integer in [0, 65535]");
      }
      port = static_cast<int>(value);
    } else if (arg == "--min-ok") {
      if (!next_size("--min-ok", &min_ok)) return 1;
    } else if (arg == "--threads") {
      if (!next_size("--threads", &threads)) return 1;
    } else if (arg == "--max-sessions") {
      if (!next_size("--max-sessions", &max_sessions)) return 1;
    } else if (arg == "--default-deadline-ms") {
      if (!next_size("--default-deadline-ms", &default_deadline)) return 1;
    } else if (arg == "--drain-deadline-ms") {
      if (!next_size("--drain-deadline-ms", &drain_deadline)) return 1;
    } else if (arg == "--fault-inject") {
      const char* v = next();
      if (v == nullptr) {
        return Fail("--fault-inject needs a spec like "
                    "'seed=7;snapshot-read=1'");
      }
      fault_spec = v;
    } else {
      std::fprintf(stderr,
                   "usage: pathalg_serve [--graph <spec> | --csv <file> | "
                   "--snapshot <file>] [--snapshot-dir <dir>] "
                   "[--mutation-dir <dir>] "
                   "[--port N] [--max-sessions N] [--min-ok N] "
                   "[--threads N] [--default-deadline-ms N] "
                   "[--drain-deadline-ms N] [--fault-inject <spec>]\n");
      return arg == "--help" ? 0 : 1;
    }
  }

  if (!fault_spec.empty()) {
    const Status configured =
        FaultInjector::Global().Configure(fault_spec);
    if (!configured.ok()) return Fail(configured.ToString().c_str());
    std::fprintf(stderr, "fault injection ON: %s\n", fault_spec.c_str());
  }

#ifdef __unix__
  // Graceful shutdown needs SIGTERM/SIGINT claimed by sigwait before any
  // worker thread exists (threads inherit the mask; a thread with the
  // signal unblocked would take the default, terminating, disposition).
  // Pipe mode keeps default signal handling — Ctrl-C just kills the pipe.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  if (port >= 0) pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
#endif

  server::GraphCatalogOptions catalog_options;
  catalog_options.snapshot_dir = snapshot_dir;
  catalog_options.mutation_dir = mutation_dir;
  server::GraphCatalog catalog(catalog_options);
  server::SessionManagerOptions options;
  options.max_sessions = max_sessions;
  options.default_graph_spec = graph_spec;
  options.default_deadline_ms = default_deadline;
  options.engine.query.eval.threads = threads;
  server::SessionManager manager(&catalog, options);

  // Load the default graph up front so a bad spec fails at startup, not
  // on the first connection.
  Result<server::CatalogEntryPtr> entry = catalog.Get(graph_spec);
  if (!entry.ok()) return Fail(entry.status().ToString().c_str());
  std::fprintf(stderr,
               "graph ready: %zu nodes, %zu edges (eval threads: %zu, "
               "max sessions: %zu)\n",
               (*entry)->graph->num_nodes(), (*entry)->graph->num_edges(),
               threads, max_sessions);

  if (port >= 0) {
    if (min_ok > 0) {
      return Fail("--min-ok only applies to stdin mode (TCP serves "
                  "clients forever)");
    }
    server::TcpServer tcp(&manager);
    server::TcpServerOptions tcp_options;
    tcp_options.port = static_cast<uint16_t>(port);
    tcp_options.drain_deadline_ms = drain_deadline;
    Status started = tcp.Start(tcp_options);
    if (!started.ok()) return Fail(started.ToString().c_str());
#ifdef __unix__
    // One dedicated thread owns the (blocked) stop signals: Stop() locks
    // and condition-waits, so it must run in a normal thread, never in
    // signal context. sigwait returns on the first SIGTERM/SIGINT and
    // the thread performs the graceful drain.
    std::thread signal_waiter([&stop_signals, &tcp] {
      int sig = 0;
      if (sigwait(&stop_signals, &sig) == 0) {
        std::fprintf(stderr, "signal %d: draining and stopping\n", sig);
      }
      tcp.Stop();
    });
#endif
    std::fprintf(stderr,
                 "listening on 127.0.0.1:%u (SIGTERM/Ctrl-C drains and "
                 "stops)\n",
                 tcp.port());
    tcp.WaitUntilStopped();
#ifdef __unix__
    signal_waiter.join();
#endif
    return 0;
  }

  return ServePipe(manager, min_ok);
}

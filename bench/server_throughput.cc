// Multi-client server throughput (src/server): an in-process load driver
// that starts the concurrent TCP server on a kernel-picked loopback port
// and sweeps 1/2/4/8 concurrent sessions replaying the committed
// social_mixed workload, each client a real socket speaking the line
// protocol. This is the end-to-end concurrency measurement surface for
// future scaling PRs — QPS and p50/p99 round-trip latency per session
// count, emitted as compare.py-compatible JSON (`wall_time_ms` /
// `sum_iteration_time_ms` maps keyed by sessions_N, plus informational
// `qps` / `latency_p50_ms` / `latency_p99_ms` maps).
//
// The artifact phase enforces the serving determinism contract: sessions
// run with `!timing off`, so every response is a pure function of the
// request stream — each concurrent client's transcript must be
// byte-identical to a serial single-client run, and every `# expect`
// cardinality of the workload must appear verbatim in the responses.
//
// Flags (besides google-benchmark's):
//   --verify_only   determinism assertions + sweep table only
//   --json <file>   also write the sweep JSON to <file>
//
// POSIX-only (sockets); the artifact is skipped elsewhere.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timing.h"
#include "engine/workload_file.h"
#include "server/graph_catalog.h"
#include "server/line_client.h"
#include "server/session.h"
#include "server/tcp_server.h"

#ifndef PATHALG_WORKLOAD_DIR
#define PATHALG_WORKLOAD_DIR "bench/workloads"
#endif

namespace pathalg {
namespace bench {
namespace {

std::string g_json_path;

constexpr size_t kSessionCounts[] = {1, 2, 4, 8};
constexpr size_t kPasses = 3;  // full workload replays per client

/// The request stream every client sends: the workload's queries expanded
/// by their repeat counts, `kPasses` times over.
struct LoadPlan {
  engine::Workload workload;
  std::vector<std::string> requests;
  /// Expected response per request ("OK <n> paths") where the workload
  /// pins a cardinality; empty string = unpinned.
  std::vector<std::string> expected;
};

const LoadPlan& Plan() {
  static LoadPlan* plan = [] {
    auto* p = new LoadPlan();
    const std::string path =
        std::string(PATHALG_WORKLOAD_DIR) + "/social_mixed.gqlw";
    auto loaded = engine::LoadWorkloadFile(path);
    Check(loaded.ok(), "social_mixed.gqlw loads");
    p->workload = std::move(loaded).value();
    for (size_t pass = 0; pass < kPasses; ++pass) {
      for (const engine::WorkloadEntry& e : p->workload.entries) {
        for (size_t r = 0; r < e.repeat; ++r) {
          p->requests.push_back(e.query);
          p->expected.push_back(
              e.expect.has_value()
                  ? "OK " + std::to_string(*e.expect) + " paths"
                  : std::string());
        }
      }
    }
    return p;
  }();
  return *plan;
}

/// The server under test, shared by the artifact phase and the timing
/// cases (one catalog/cache/listener for the whole binary run — exactly
/// the long-lived shape a production deployment has).
struct ServerFixture {
  server::GraphCatalog catalog;
  std::unique_ptr<server::SessionManager> manager;
  std::unique_ptr<server::TcpServer> tcp;

  static ServerFixture& Get() {
    static ServerFixture* f = [] {
      auto* fx = new ServerFixture();
      server::SessionManagerOptions options;
      options.max_sessions = 16;  // above the widest sweep point
      options.default_graph_spec = Plan().workload.graph_spec;
      fx->manager = std::make_unique<server::SessionManager>(&fx->catalog,
                                                             options);
      fx->tcp = std::make_unique<server::TcpServer>(fx->manager.get());
      Status started = fx->tcp->Start({});
      Check(started.ok(), "in-process TCP server starts on an ephemeral "
                          "loopback port");
      return fx;
    }();
    return *f;
  }
};

/// One client: connect, switch to deterministic responses, replay the
/// whole request stream. Fills `transcript` (one response line per
/// request) and `latencies_us` (per round trip) when non-null.
void RunClient(uint16_t port, std::vector<std::string>* transcript,
               std::vector<uint64_t>* latencies_us, bool* ok) {
  const LoadPlan& plan = Plan();
  server::LineClient client;
  *ok = false;
  if (!client.Connect(port).ok()) return;
  auto timing_off = client.RoundTrip("!timing off");
  if (!timing_off.ok() || *timing_off != "OK timing off") return;
  for (const std::string& request : plan.requests) {
    const SteadyClock::time_point start = SteadyClock::now();
    auto response = client.RoundTrip(request);
    const uint64_t us = MicrosSince(start);
    if (!response.ok()) return;
    if (transcript != nullptr) transcript->push_back(*response);
    if (latencies_us != nullptr) latencies_us->push_back(us);
  }
  *ok = true;
}

/// Runs `sessions` concurrent clients; returns false if any failed.
bool RunWave(size_t sessions, std::vector<std::vector<std::string>>* scripts,
             std::vector<uint64_t>* all_latencies_us, uint64_t* wall_us) {
  const uint16_t port = ServerFixture::Get().tcp->port();
  std::vector<std::thread> threads;
  std::vector<std::vector<std::string>> transcripts(sessions);
  std::vector<std::vector<uint64_t>> latencies(sessions);
  std::vector<uint8_t> ok(sessions, 0);
  const SteadyClock::time_point start = SteadyClock::now();
  for (size_t c = 0; c < sessions; ++c) {
    threads.emplace_back([&, c] {
      bool client_ok = false;
      RunClient(port, &transcripts[c], &latencies[c], &client_ok);
      ok[c] = client_ok ? 1 : 0;
    });
  }
  for (std::thread& t : threads) t.join();
  if (wall_us != nullptr) *wall_us = MicrosSince(start);
  for (size_t c = 0; c < sessions; ++c) {
    if (ok[c] == 0) return false;
  }
  if (scripts != nullptr) *scripts = std::move(transcripts);
  if (all_latencies_us != nullptr) {
    for (const std::vector<uint64_t>& l : latencies) {
      all_latencies_us->insert(all_latencies_us->end(), l.begin(), l.end());
    }
  }
  return true;
}

double PercentileMs(std::vector<uint64_t> us, double p) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  const size_t idx = std::min(
      us.size() - 1, static_cast<size_t>(p * static_cast<double>(us.size())));
  return static_cast<double>(us[idx]) / 1000.0;
}

void PrintArtifact() {
#ifndef __unix__
  PrintHeader("server throughput (skipped: requires POSIX sockets)");
  return;
#else
  PrintHeader("concurrent serving — multi-client TCP throughput sweep");
  const LoadPlan& plan = Plan();
  ServerFixture& fx = ServerFixture::Get();
  std::printf("graph: %s; %zu requests/client (%zu queries x %zu passes); "
              "server 127.0.0.1:%u, max_sessions=16\n\n",
              plan.workload.graph_spec.c_str(), plan.requests.size(),
              plan.requests.size() / kPasses, kPasses, fx.tcp->port());

  // --- The contract: every concurrent client's transcript is
  // byte-identical to a serial single-client run. -----------------------
  std::vector<std::vector<std::string>> reference;
  Check(RunWave(1, &reference, nullptr, nullptr), "serial reference client");
  Check(reference.size() == 1 &&
            reference[0].size() == plan.requests.size(),
        "serial reference answered every request");
  for (size_t i = 0; i < plan.requests.size(); ++i) {
    if (!plan.expected[i].empty()) {
      Check(reference[0][i] == plan.expected[i],
            "responses carry the workload's pinned cardinalities");
    }
  }
  for (size_t sessions : {2u, 4u, 8u}) {
    std::vector<std::vector<std::string>> transcripts;
    Check(RunWave(sessions, &transcripts, nullptr, nullptr),
          "concurrent wave completed");
    for (const std::vector<std::string>& t : transcripts) {
      Check(t == reference[0],
            "concurrent client transcript byte-identical to the serial "
            "single-client run");
    }
    std::printf("  %zu concurrent sessions: %zu transcripts == serial "
                "reference\n",
                sessions, transcripts.size());
  }

  // --- The sweep: QPS + latency percentiles per session count. ---------
  std::printf("\n  %-10s %10s %10s %10s %10s\n", "sessions", "wall ms",
              "QPS", "p50 ms", "p99 ms");
  std::string wall_json, iter_json, qps_json, p50_json, p99_json;
  for (size_t sessions : kSessionCounts) {
    std::vector<uint64_t> latencies;
    uint64_t wall_us = 0;
    Check(RunWave(sessions, nullptr, &latencies, &wall_us),
          "sweep wave completed");
    const double wall_ms = static_cast<double>(wall_us) / 1000.0;
    const double qps =
        wall_us == 0 ? 0.0
                     : static_cast<double>(latencies.size()) * 1e6 /
                           static_cast<double>(wall_us);
    uint64_t sum_us = 0;
    for (uint64_t us : latencies) sum_us += us;
    const double mean_ms =
        latencies.empty()
            ? 0.0
            : static_cast<double>(sum_us) / 1000.0 /
                  static_cast<double>(latencies.size());
    const double p50 = PercentileMs(latencies, 0.50);
    const double p99 = PercentileMs(latencies, 0.99);
    std::printf("  %-10zu %10.2f %10.1f %10.2f %10.2f\n", sessions, wall_ms,
                qps, p50, p99);
    const std::string key = "sessions_" + std::to_string(sessions);
    auto append = [&](std::string& json, double v) {
      json += (json.empty() ? "" : ", ") + ("\"" + key + "\": ") +
              std::to_string(v);
    };
    append(wall_json, wall_ms);
    append(iter_json, mean_ms);  // mean round-trip latency per query
    append(qps_json, qps);
    append(p50_json, p50);
    append(p99_json, p99);
  }
  std::string json = "{\n  \"schema\": \"pathalg-server-throughput-v1\",\n";
  json += "  \"hardware_threads\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"requests_per_client\": " +
          std::to_string(plan.requests.size()) + ",\n";
  json += "  \"wall_time_ms\": {" + wall_json + "},\n";
  json += "  \"sum_iteration_time_ms\": {" + iter_json + "},\n";
  json += "  \"qps\": {" + qps_json + "},\n";
  json += "  \"latency_p50_ms\": {" + p50_json + "},\n";
  json += "  \"latency_p99_ms\": {" + p99_json + "}\n}\n";
  std::printf("\n-- JSON sweep ---------------------------------------\n%s",
              json.c_str());
  if (!g_json_path.empty()) {
    std::ofstream out(g_json_path);
    out << json;
    std::printf("(wrote %s)\n", g_json_path.c_str());
  }
  std::printf("\n");
#endif  // __unix__
}

#ifdef __unix__
void BM_ServerConcurrentSessions(benchmark::State& state) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  ServerFixture::Get();  // server up before the timing loop
  size_t total_requests = 0;
  for (auto _ : state) {
    const bool ok = RunWave(sessions, nullptr, nullptr, nullptr);
    if (!ok) {
      state.SkipWithError("client wave failed");
      return;
    }
    total_requests += sessions * Plan().requests.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_requests));
  state.SetLabel("sessions:" + std::to_string(sessions));
}
// Wall-clock time: the main thread only blocks while the client threads
// and the server work, so its CPU time would inflate items_per_second.
BENCHMARK(BM_ServerConcurrentSessions)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
#endif  // __unix__

/// Strips "--json <file>" before google-benchmark sees it.
void StripFlags(int* argc, char** argv) {
  for (int i = 1; i < *argc;) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "FATAL: --json needs a value\n");
        std::exit(1);
      }
      g_json_path = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      argv[*argc] = nullptr;
    } else {
      ++i;
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace pathalg

int main(int argc, char** argv) {
  pathalg::bench::StripFlags(&argc, argv);
  return pathalg::bench::BenchMain(argc, argv,
                                   pathalg::bench::PrintArtifact);
}

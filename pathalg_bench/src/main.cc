// pathalg_bench — the served-path benchmark. Spawns the real pathalg_serve
// for each workload, drives it from one client thread over three loopback
// connections, checks every answer, and reports end-to-end metrics (or,
// with --trace 1, per-layer metrics). See README.md for the workloads,
// the metrics and the layer each one belongs to.
//
// Usage:
//   pathalg_bench [--workload point_reads|closure_analytics|live_churn|all]
//                 [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//                 [--work-dir DIR] [--verify_only]
//
// Prints one line per (workload, metric), then a JSON object as the last
// line: {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// correctness check fails, 2 on a usage error.

#include <sched.h>
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/workload_file.h"
#include "gql/query.h"
#include "load.h"
#include "server_process.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

#ifndef PATHALG_SERVE_PATH
#define PATHALG_SERVE_PATH "pathalg_serve"
#endif
#ifndef PATHALG_BENCH_BUILD_TYPE
#define PATHALG_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PATHALG_BENCH_COMPILER
#define PATHALG_BENCH_COMPILER "unknown"
#endif

namespace pathalg {
namespace bench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kWorkloadNames[] = {"point_reads", "closure_analytics",
                                          "live_churn"};

// Open-loop rates. A point read costs the pinned server ~1.5 ms of CPU,
// so 250 reads/s keep it ~40% busy: the queue stays short even when the
// host slows down by half, and latency measures the request path rather
// than the host. Live churn puts a write stream beside 200 reads/s.
constexpr double kPointReadRate = 250.0;
constexpr double kChurnReadRate = 200.0;
constexpr double kChurnWriteRate = 40.0;
constexpr size_t kConnections = 3;
/// Server starts per run; setup_s is their median.
constexpr size_t kSetupRepeats = 11;
/// Open-loop warm-up before the measured phase (plan cache, page cache).
constexpr double kWarmupS = 2.0;
/// Share of --seconds given to the open-loop phase; the rest is the
/// closed-loop saturation phase.
constexpr double kOpenShare = 2.0 / 3.0;
/// Writes applied after a read-only workload's stream to size the
/// mutation and storage layers on its data (one compaction plus a tail).
constexpr size_t kProbeWrites = 96;

struct Options {
  std::vector<std::string> workloads;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool verify_only = false;
  std::string out;
  std::string work_dir = ".";
  std::string serve = PATHALG_SERVE_PATH;
  /// CPUs the server may run on (empty: any).
  std::vector<int> server_cpus;
};

/// One workload's result.
struct Report {
  std::string name;
  /// End-to-end metrics (--trace 0) or per-layer metrics (--trace 1):
  /// exactly what BENCHMARK.json lists.
  MetricMap metrics;
  /// Sample counts behind latency metrics.
  std::map<std::string, size_t> samples;
  /// Reported but not gated (write latency, generator lag, ...).
  MetricMap extra;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  /// A check that is not a request (version ids, restart).
  void Check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) Fail(why);
  }
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Host shape
// ---------------------------------------------------------------------------

/// A fixed CPU-bound loop (xorshift), so calibration compares like work.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// nproc x (one thread's time) / (time of nproc threads at once): about 1
/// on a host whose CPUs are shared or throttled down to one. Each time is
/// the fastest of three trials, so a passing burst of other load does not
/// read as a smaller machine.
double EffectiveCpus(size_t nproc) {
  constexpr uint64_t kIterations = 30'000'000;
  std::vector<uint64_t> sink(nproc);
  double one = 1e9;
  double all = 1e9;
  for (int trial = 0; trial < 3; ++trial) {
    Clock::time_point start = Clock::now();
    sink[0] = Spin(kIterations);
    one = std::min(one, SecondsSince(start));
    start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < nproc; ++i) {
      threads.emplace_back([&sink, i] { sink[i] = Spin(kIterations + i); });
    }
    for (std::thread& t : threads) t.join();
    all = std::min(all, SecondsSince(start));
  }
  return static_cast<double>(nproc) * one / all;
}

struct HostShape {
  size_t nproc = 0;
  double effective_cpus = 0.0;
  double loadavg = 0.0;
};

HostShape MeasureHost() {
  HostShape h;
  h.nproc = std::max<size_t>(1, std::thread::hardware_concurrency());
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) h.loadavg = load[0];
  h.effective_cpus = EffectiveCpus(h.nproc);
  return h;
}

/// Runs the server on the first CPU this process may use and the client
/// on the last. The host's parallel capacity changes from minute to
/// minute (effective_cpus has read anywhere from 1 to 4 on a 4-CPU host),
/// and a server free to spread over whichever CPUs are idle measures that
/// instead of itself; pinned, every workload measures a one-CPU server
/// (the server's default --threads 1 evaluates each query on one thread
/// anyway), and the generator never competes with it. With one CPU both
/// share it.
void PinCpus(Options* opts) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  opts->server_cpus = {cpus.front()};
  cpu_set_t client;
  CPU_ZERO(&client);
  CPU_SET(cpus.back(), &client);
  sched_setaffinity(0, sizeof(client), &client);
}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

struct ServerConfig {
  std::vector<std::string> args;
  /// Graph each connection binds to with `!graph`.
  std::vector<std::string> conn_specs;
  /// Non-empty: the --mutation-dir, emptied before every fresh start.
  std::string mutation_dir;
};

struct Served {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<LoadClient> client;
};

/// Spawn → listening → every connection open and answered once.
Result<Served> StartServer(const Options& opts, const ServerConfig& cfg,
                           double* setup_s) {
  const Clock::time_point start = Clock::now();
  Served s;
  PATHALG_ASSIGN_OR_RETURN(
      s.server, ServerProcess::Spawn(opts.serve, cfg.args, opts.server_cpus));
  PATHALG_ASSIGN_OR_RETURN(
      s.client, LoadClient::Connect(s.server->port(), cfg.conn_specs.size()));
  for (size_t i = 0; i < cfg.conn_specs.size(); ++i) {
    PATHALG_ASSIGN_OR_RETURN(std::string got,
                             s.client->Call(i, "!graph " + cfg.conn_specs[i]));
    if (got.rfind("OK graph", 0) != 0) {
      return Status::Internal("connection " + std::to_string(i) +
                              " could not bind its graph: " + got);
    }
  }
  *setup_s = SecondsSince(start);
  return s;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

/// Starts the server kSetupRepeats times from scratch, records the median
/// setup time and keeps the last instance for the load.
Result<Served> StartMeasured(const Options& opts, const ServerConfig& cfg,
                             Report* report) {
  const size_t repeats = opts.verify_only ? 1 : kSetupRepeats;
  std::vector<double> setups;
  for (size_t k = 0;; ++k) {
    if (!cfg.mutation_dir.empty()) ResetDir(cfg.mutation_dir);
    double setup_s = 0.0;
    PATHALG_ASSIGN_OR_RETURN(Served served, StartServer(opts, cfg, &setup_s));
    setups.push_back(setup_s);
    if (k + 1 == repeats) {
      if (!opts.trace) {
        report->metrics["setup_s"] = {Quantile(setups, 0.5), "s"};
      }
      report->samples["setup_s"] = setups.size();
      return served;
    }
    served.client.reset();
    PATHALG_RETURN_NOT_OK(served.server->Stop(SIGKILL));
  }
}

/// Every `key=value` of the STAT lines of a `!stats` answer.
std::map<std::string, double> ParseStats(const std::string& block) {
  std::map<std::string, double> out;
  std::istringstream lines(block);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("STAT ", 0) != 0) continue;
    std::istringstream words(line.substr(5));
    std::string word;
    while (words >> word) {
      const size_t eq = word.find('=');
      if (eq == std::string::npos) continue;
      out[word.substr(0, eq)] = std::strtod(word.c_str() + eq + 1, nullptr);
    }
  }
  return out;
}

struct ServerSnapshot {
  std::map<std::string, double> stats;
  double cpu_s = 0.0;
};

ServerSnapshot Snapshot(Served* s, Report* report) {
  ServerSnapshot snap;
  Result<std::string> got = s->client->Call(0, "!stats");
  report->Check(got.ok(), "!stats failed");
  if (got.ok()) snap.stats = ParseStats(*got);
  snap.cpu_s = s->server->CpuSeconds();
  return snap;
}

/// `!timing on` on every connection: responses then carry the engine's
/// parse/opt/eval/total split.
Status EnableTiming(Served* s) {
  for (size_t i = 0; i < s->client->connections(); ++i) {
    PATHALG_ASSIGN_OR_RETURN(std::string got, s->client->Call(i, "!timing on"));
    if (got.rfind("OK timing", 0) != 0) {
      return Status::Internal("!timing failed: " + got);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metrics from outcomes
// ---------------------------------------------------------------------------

/// Counts every outcome as attempted and every unanswered or non-OK one
/// as failed.
void CountOutcomes(const PhaseResult& phase, Report* report) {
  for (const Outcome& o : phase.outcomes) {
    ++report->attempted;
    if (!o.answered() || o.response.rfind("OK", 0) != 0) {
      report->Fail("request on connection " + std::to_string(o.conn) +
                   " got '" + o.response + "'");
    }
  }
}

/// Latencies (ms, from the intended send time) of answered `kind`
/// requests due at or after `from_s`.
std::vector<double> LatenciesMs(const PhaseResult& phase, RequestKind kind,
                                double from_s) {
  std::vector<double> ms;
  for (const Outcome& o : phase.outcomes) {
    if (o.kind == kind && o.answered() && o.due >= from_s) {
      ms.push_back(o.latency_from_due() * 1e3);
    }
  }
  return ms;
}

void AddLatency(const std::string& prefix, const std::vector<double>& ms,
                MetricMap* into, Report* report) {
  const LatencySummary s = Summarize(ms);
  (*into)[prefix + "_p50_ms"] = {s.p50, "ms"};
  (*into)[prefix + "_p99_ms"] = {s.tail, "ms"};
  report->samples[prefix + "_p50_ms"] = s.n;
  report->samples[prefix + "_p99_ms"] = s.n;
  if (s.tail_quantile != 0.99) {
    report->extra[prefix + "_p99_ms.quantile"] = {s.tail_quantile, "fraction"};
  }
}

/// Answers completed per second: the upper quartile over the 1-second
/// windows of [0, end_s). Shared hosts slow down by a third for seconds at
/// a time; the upper quartile reads the server's rate outside those spells
/// as long as a quarter of the phase escapes them.
double Throughput(const PhaseResult& phase, RequestKind kind, double end_s) {
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(end_s));
  const double width = end_s / static_cast<double>(windows);
  std::vector<double> rate(windows, 0.0);
  for (const Outcome& o : phase.outcomes) {
    if (o.kind == kind && o.answered() && o.received < end_s &&
        o.response.rfind("OK", 0) == 0) {
      rate[std::min(windows - 1, static_cast<size_t>(o.received / width))] +=
          1.0 / width;
    }
  }
  return Quantile(rate, 0.75);
}

double GenLagP99Ms(const PhaseResult& phase) {
  std::vector<double> lag;
  for (const Outcome& o : phase.outcomes) lag.push_back((o.sent - o.due) * 1e3);
  return Quantile(lag, SupportedTailQuantile(lag.size()));
}

/// `key=<n>us` field of a `!timing on` response, or -1.
double TimingField(const std::string& response, const char* key) {
  const std::string needle = std::string(" ") + key + "=";
  const size_t at = response.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::strtod(response.c_str() + at + needle.size(), nullptr);
}

/// The per-layer metrics measured over TCP: phase A untraced, phase B the
/// same schedule with `!timing on`.
void AddTcpLayers(const PhaseResult& a, const PhaseResult& b, double from_s,
                  const ServerSnapshot& before, const ServerSnapshot& after,
                  Report* report) {
  MetricMap& m = report->metrics;
  std::vector<double> rtt_minus, execute, overhead;
  for (const Outcome& o : b.outcomes) {
    if (o.kind != RequestKind::kRead || !o.answered() || o.due < from_s) {
      continue;
    }
    const double total = TimingField(o.response, "total");
    if (total < 0) continue;
    rtt_minus.push_back((o.received - o.sent) * 1e6 - total);
    execute.push_back(total);
    overhead.push_back(total - TimingField(o.response, "parse") -
                       TimingField(o.response, "opt") -
                       TimingField(o.response, "eval"));
  }
  const double tail = SupportedTailQuantile(execute.size());
  m["server.rtt_minus_engine_us.p50"] = {Quantile(rtt_minus, 0.5), "us"};
  m["server.rtt_minus_engine_us.p99"] = {Quantile(rtt_minus, tail), "us"};
  m["engine.execute_us.p50"] = {Quantile(execute, 0.5), "us"};
  m["engine.execute_us.p99"] = {Quantile(execute, tail), "us"};
  m["engine.prepare_overhead_us.p99"] = {Quantile(overhead, tail), "us"};
  report->samples["engine.execute_us.p99"] = execute.size();

  auto delta = [&](const char* key) {
    auto x = after.stats.find(key);
    auto y = before.stats.find(key);
    return (x == after.stats.end() ? 0.0 : x->second) -
           (y == before.stats.end() ? 0.0 : y->second);
  };
  const double hits = delta("cache_hits");
  const double misses = delta("cache_misses");
  m["engine.plan_cache.hit_ratio"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction"};
  m["engine.plan_cache.evictions"] = {delta("cache_evictions"), "count"};
  size_t answered = 0;
  size_t reads = 0;
  for (const Outcome& o : a.outcomes) {
    if (!o.answered()) continue;
    ++answered;
    if (o.kind == RequestKind::kRead) ++reads;
  }
  m["server.cpu_us_per_request"] = {
      answered > 0 ? (after.cpu_s - before.cpu_s) * 1e6 / answered : 0.0, "us"};
  auto it = after.stats.find("sessions_rejected");
  m["server.sessions_rejected"] = {it == after.stats.end() ? 0.0 : it->second,
                                   "count"};
  m["mutation.materializations_per_read"] = {
      reads > 0 ? delta("materializations") / reads : 0.0, "ratio"};
  m["bench.gen_lag_p99_ms"] = {GenLagP99Ms(a), "ms"};
  const double untraced =
      Summarize(LatenciesMs(a, RequestKind::kRead, from_s)).p50;
  const double traced =
      Summarize(LatenciesMs(b, RequestKind::kRead, from_s)).p50;
  m["bench.tracing_overhead_pct"] = {
      untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0, "%"};
}

/// The in-process replay and its span file; adds the in-process layers.
void AddReplayLayers(const Options& opts, ReplayInput input, Report* report) {
  Tracer tracer;
  size_t mismatches = 0;
  const Status replayed =
      ReplayInProcess(input, &tracer, &report->metrics, &mismatches);
  report->Check(replayed.ok(),
                "in-process replay failed: " + replayed.ToString());
  report->attempted += input.items.size();
  for (size_t i = 0; i < mismatches; ++i) {
    report->Fail("in-process replay answer differs from the served one");
  }
  const std::string path =
      opts.work_dir + "/trace-" + report->name + ".json";
  const Status written = tracer.WriteJson(path, report->name);
  report->Check(written.ok(), written.ToString());
  if (written.ok()) std::fprintf(stderr, "spans written to %s\n", path.c_str());
}

std::vector<std::string> ProbeWrites(std::shared_ptr<const PropertyGraph> g,
                                     uint64_t seed) {
  ChurnWriter writer(std::move(g), seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < kProbeWrites; ++i) {
    const std::string& line = writer.line(writer.Next());
    out.push_back(line.substr(line.find(' ') + 1));
  }
  return out;
}

Result<std::shared_ptr<const PropertyGraph>> BuildShared(
    const std::string& spec) {
  PATHALG_ASSIGN_OR_RETURN(PropertyGraph g, engine::BuildWorkloadGraph(spec));
  return std::make_shared<const PropertyGraph>(std::move(g));
}

struct Timings {
  double warm_s = kWarmupS;
  double open_s = 0.0;
  double closed_s = 0.0;
};

Timings PhaseTimings(const Options& opts) {
  Timings t;
  if (opts.verify_only) return {0.3, 0.7, 0.3};
  t.open_s = opts.seconds * kOpenShare;
  t.closed_s = opts.seconds - t.open_s;
  return t;
}

/// Checks an answered OK read against the reference count.
void CheckCount(const Outcome& o, const Result<size_t>& want,
                const std::string& what, Report* report) {
  size_t got = 0;
  // Unanswered and non-OK outcomes are already counted as failures.
  if (!o.answered() || !ParseCount(o.response, &got)) return;
  if (!want.ok() || got != *want) {
    report->Fail("wrong answer to " + what + ": served '" + o.response +
                 "', reference " +
                 (want.ok() ? std::to_string(*want)
                            : want.status().ToString()));
  }
}

/// Replay items for the answered OK reads of `phase`, in send order.
std::vector<ReplayItem> ReadItems(
    const PhaseResult& phase,
    const std::function<std::string(uint32_t)>& text) {
  std::vector<ReplayItem> items;
  for (const Outcome& o : phase.outcomes) {
    size_t count = 0;
    if (o.kind != RequestKind::kRead || !ParseCount(o.response, &count)) {
      continue;
    }
    items.push_back({o.conn, RequestKind::kRead, text(o.tag), count});
  }
  return items;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Status RunPointReads(const Options& opts, const std::string& scratch,
                     Report* report) {
  const Timings t = PhaseTimings(opts);
  ServerConfig cfg;
  cfg.args = {"--graph", kSocialSpec};
  cfg.conn_specs.assign(kConnections, kSocialSpec);
  PATHALG_ASSIGN_OR_RETURN(Served s, StartMeasured(opts, cfg, report));

  PointReadStream stream(opts.seed);
  std::mt19937_64 arrivals(opts.seed);
  PhaseSpec open;
  const std::vector<double> due =
      PoissonArrivals(kPointReadRate, 0.0, t.warm_s + t.open_s, arrivals);
  for (size_t i = 0; i < due.size(); ++i) {
    Request r;
    r.due = due[i];
    r.conn = i % kConnections;
    r.tag = stream.Next();
    r.line = PointReadText(r.tag);
    open.open.push_back(std::move(r));
  }
  open.end_s = t.warm_s + t.open_s;

  const ServerSnapshot before = Snapshot(&s, report);
  const PhaseResult a = s.client->Run(open);
  const ServerSnapshot after = Snapshot(&s, report);
  PhaseResult second;
  if (opts.trace) {
    PATHALG_RETURN_NOT_OK(EnableTiming(&s));
    second = s.client->Run(open);
  } else {
    // Saturation: every connection keeps one read outstanding.
    PhaseSpec saturate;
    saturate.closed_slots = kConnections;
    saturate.closed = [&stream](size_t slot, Request* r) {
      r->conn = slot;
      r->tag = stream.Next();
      r->line = PointReadText(r->tag);
      return true;
    };
    saturate.end_s = t.closed_s;
    second = s.client->Run(saturate);
  }
  const double rss = s.server->PeakRssMiB();
  s.client.reset();
  report->Check(s.server->Stop(SIGTERM).ok(),
                "pathalg_serve did not stop cleanly");

  PATHALG_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> graph,
                           BuildShared(kSocialSpec));
  ReferenceAnswers reference(graph);
  const PhaseResult* const phases[] = {&a, &second};
  for (const PhaseResult* p : phases) {
    CountOutcomes(*p, report);
    for (const Outcome& o : p->outcomes) {
      const std::string text = PointReadText(o.tag);
      CheckCount(o, reference.Count(text), text, report);
    }
  }

  if (!opts.trace) {
    AddLatency("read", LatenciesMs(a, RequestKind::kRead, t.warm_s),
               &report->metrics, report);
    report->extra["throughput_qps"] = {
        Throughput(second, RequestKind::kRead, t.closed_s), "req/s"};
    report->metrics["peak_rss_mb"] = {rss, "MiB"};
    report->extra["gen_lag_p99_ms"] = {GenLagP99Ms(a), "ms"};
    return Status::OK();
  }
  AddTcpLayers(a, second, t.warm_s, before, after, report);
  ReplayInput replay;
  replay.conn_specs = cfg.conn_specs;
  replay.items = ReadItems(a, PointReadText);
  replay.probe_writes = ProbeWrites(graph, opts.seed);
  replay.scratch_dir = scratch + "/replay";
  ResetDir(replay.scratch_dir);
  AddReplayLayers(opts, std::move(replay), report);
  return Status::OK();
}

Status RunClosureAnalytics(const Options& opts, const std::string& scratch,
                           Report* report) {
  PATHALG_ASSIGN_OR_RETURN(ClosureSuite suite, LoadClosureSuite());
  ServerConfig cfg;
  cfg.args = {"--graph", suite.graph_specs.front()};
  cfg.conn_specs = suite.graph_specs;
  PATHALG_ASSIGN_OR_RETURN(Served s, StartMeasured(opts, cfg, report));

  // Warm-up: every query once, in file order.
  for (const ClosureQuery& q : suite.queries) {
    Result<std::string> got = s.client->Call(q.graph, q.text);
    size_t count = 0;
    report->Check(got.ok() && ParseCount(*got, &count) && count == q.expect,
                  "warm-up answer to " + q.name + " differs from its pin");
  }

  // Closed loop, one query outstanding at a time, each on the connection
  // bound to its graph. Passes are sized for queries of at least 1 ms.
  const double run_s = opts.verify_only ? 1.0 : opts.seconds;
  size_t per_pass = 0;
  for (const ClosureQuery& q : suite.queries) per_pass += q.repeat;
  const size_t passes =
      static_cast<size_t>(run_s * 1000.0 / static_cast<double>(per_pass)) + 2;
  const std::vector<uint32_t> order = ClosureOrder(suite, opts.seed, passes);
  auto phase = [&](size_t* next) {
    PhaseSpec p;
    p.closed_slots = 1;
    p.closed = [&suite, &order, next](size_t, Request* r) {
      if (*next >= order.size()) return false;
      r->tag = order[(*next)++];
      r->conn = suite.queries[r->tag].graph;
      r->line = suite.queries[r->tag].text;
      return true;
    };
    p.end_s = run_s;
    return p;
  };
  size_t next_a = 0;
  const ServerSnapshot before = Snapshot(&s, report);
  const PhaseResult a = s.client->Run(phase(&next_a));
  const ServerSnapshot after = Snapshot(&s, report);
  PhaseResult b;
  if (opts.trace) {
    PATHALG_RETURN_NOT_OK(EnableTiming(&s));
    size_t next_b = 0;
    b = s.client->Run(phase(&next_b));
  }
  const double rss = s.server->PeakRssMiB();
  s.client.reset();
  report->Check(s.server->Stop(SIGTERM).ok(),
                "pathalg_serve did not stop cleanly");

  const PhaseResult* const phases[] = {&a, &b};
  for (const PhaseResult* p : phases) {
    CountOutcomes(*p, report);
    for (const Outcome& o : p->outcomes) {
      const ClosureQuery& q = suite.queries[o.tag];
      CheckCount(o, Result<size_t>(q.expect), q.name, report);
    }
  }
  if (opts.verify_only) {
    // The pins must also be the answers of the literal Definition 4.1
    // closure, not only of the optimized engines the server runs.
    std::vector<std::shared_ptr<const PropertyGraph>> graphs;
    for (const std::string& spec : suite.graph_specs) {
      PATHALG_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> g,
                               BuildShared(spec));
      graphs.push_back(std::move(g));
    }
    QueryOptions naive;
    naive.eval.engine = PhiEngine::kNaive;
    for (const ClosureQuery& q : suite.queries) {
      Result<PathSet> paths = ExecuteQuery(*graphs[q.graph], q.text, naive);
      report->Check(paths.ok() && paths->size() == q.expect,
                    q.name + ": PhiEngine::kNaive disagrees with the pin");
    }
  }

  if (!opts.trace) {
    AddLatency("read", LatenciesMs(a, RequestKind::kRead, 0.0),
               &report->metrics, report);
    report->extra["throughput_qps"] = {
        Throughput(a, RequestKind::kRead, run_s), "req/s"};
    report->metrics["peak_rss_mb"] = {rss, "MiB"};
    return Status::OK();
  }
  AddTcpLayers(a, b, 0.0, before, after, report);
  ReplayInput replay;
  replay.conn_specs = cfg.conn_specs;
  replay.items = ReadItems(
      a, [&suite](uint32_t tag) { return suite.queries[tag].text; });
  PATHALG_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> first,
                           BuildShared(suite.graph_specs.front()));
  replay.probe_writes = ProbeWrites(first, opts.seed);
  replay.scratch_dir = scratch + "/replay";
  ResetDir(replay.scratch_dir);
  AddReplayLayers(opts, std::move(replay), report);
  return Status::OK();
}

Status RunLiveChurn(const Options& opts, const std::string& scratch,
                    Report* report) {
  const Timings t = PhaseTimings(opts);
  ServerConfig cfg;
  cfg.mutation_dir = scratch + "/live";
  cfg.args = {"--graph", kSocialSpec, "--mutation-dir", cfg.mutation_dir};
  cfg.conn_specs.assign(kConnections, kSocialSpec);
  PATHALG_ASSIGN_OR_RETURN(Served s, StartMeasured(opts, cfg, report));

  PATHALG_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> base,
                           BuildShared(kSocialSpec));
  ChurnWriter writer(base, opts.seed);
  PointReadStream stream(opts.seed);
  std::mt19937_64 arrivals(opts.seed);
  // Connection 0 writes; connections 1 and 2 read.
  const double open_end = t.warm_s + t.open_s;
  const std::vector<double> read_due =
      PoissonArrivals(kChurnReadRate, 0.0, open_end, arrivals);
  const std::vector<double> write_due =
      PoissonArrivals(kChurnWriteRate, 0.0, open_end, arrivals);
  std::vector<uint32_t> read_tags;
  for (size_t i = 0; i < read_due.size(); ++i) {
    read_tags.push_back(stream.Next());
  }
  auto writes_at = [&writer](const std::vector<double>& due) {
    std::vector<Request> out;
    for (double d : due) {
      Request w;
      w.due = d;
      w.conn = 0;
      w.kind = RequestKind::kWrite;
      w.tag = writer.Next();
      w.line = writer.line(w.tag);
      out.push_back(std::move(w));
    }
    return out;
  };
  auto open_phase = [&]() {
    PhaseSpec p;
    for (size_t i = 0; i < read_due.size(); ++i) {
      Request r;
      r.due = read_due[i];
      r.conn = 1 + i % 2;
      r.tag = read_tags[i];
      r.line = PointReadText(r.tag);
      p.open.push_back(std::move(r));
    }
    for (Request& w : writes_at(write_due)) p.open.push_back(std::move(w));
    std::stable_sort(
        p.open.begin(), p.open.end(),
        [](const Request& x, const Request& y) { return x.due < y.due; });
    p.end_s = open_end;
    return p;
  };

  // Writes sent before each phase: the version a phase starts from.
  std::vector<uint32_t> phase_base;
  phase_base.push_back(0);
  const ServerSnapshot before = Snapshot(&s, report);
  const PhaseResult a = s.client->Run(open_phase());
  const ServerSnapshot after = Snapshot(&s, report);
  phase_base.push_back(static_cast<uint32_t>(writer.size()));
  PhaseResult second;
  if (opts.trace) {
    PATHALG_RETURN_NOT_OK(EnableTiming(&s));
    second = s.client->Run(open_phase());
  } else {
    // Saturation: the writer keeps its rate; each reader keeps one read
    // outstanding.
    PhaseSpec saturate;
    std::mt19937_64 more(opts.seed + 1);
    saturate.open =
        writes_at(PoissonArrivals(kChurnWriteRate, 0.0, t.closed_s, more));
    saturate.closed_slots = 2;
    saturate.closed = [&stream](size_t slot, Request* r) {
      r->conn = 1 + slot;
      r->tag = stream.Next();
      r->line = PointReadText(r->tag);
      return true;
    };
    saturate.end_s = t.closed_s;
    second = s.client->Run(saturate);
  }

  // The served version must be the one the mirror predicts, before and
  // after a crash (SIGKILL) and restart on the same directory.
  const std::string want = "OK version " + Hex16(writer.VersionAfterAll());
  Result<std::string> version = s.client->Call(0, "!version");
  report->Check(version.ok() && *version == want,
                "live !version '" + version.value_or("<none>") + "', want '" +
                    want + "'");
  const double rss = s.server->PeakRssMiB();
  s.client.reset();
  report->Check(s.server->Stop(SIGKILL).ok(), "pathalg_serve survived SIGKILL");
  ServerConfig restart = cfg;
  restart.conn_specs.resize(1);
  double restart_s = 0.0;
  Result<Served> again = StartServer(opts, restart, &restart_s);
  report->Check(again.ok(), "restart on the same --mutation-dir failed: " +
                                again.status().ToString());
  if (again.ok()) {
    version = again->client->Call(0, "!version");
    report->Check(version.ok() && *version == want,
                  "recovered !version '" + version.value_or("<none>") +
                      "', want '" + want + "'");
    again->client.reset();
    report->Check(again->server->Stop(SIGTERM).ok(),
                  "restarted pathalg_serve did not stop cleanly");
    report->extra["restart_s"] = {restart_s, "s"};
  }

  // Writes must be acknowledged exactly as the mirror resolved them; each
  // read must equal the reference answer at some version in its window.
  std::vector<ChurnRead> reads;
  std::vector<std::pair<size_t, size_t>> read_of;  // (phase, outcome index)
  const PhaseResult* phases[] = {&a, &second};
  for (size_t p = 0; p < 2; ++p) {
    CountOutcomes(*phases[p], report);
    const std::vector<Outcome>& outcomes = phases[p]->outcomes;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const Outcome& o = outcomes[i];
      if (!o.answered()) continue;
      if (o.kind == RequestKind::kWrite) {
        if (o.response != writer.expected(o.tag)) {
          report->Fail("write answered '" + o.response + "', want '" +
                       writer.expected(o.tag) + "'");
        }
        continue;
      }
      size_t count = 0;
      if (!ParseCount(o.response, &count)) continue;
      reads.push_back({PointReadText(o.tag), count,
                       phase_base[p] + o.writes_answered_at_send,
                       phase_base[p] + o.writes_sent_at_answer});
      read_of.emplace_back(p, i);
    }
  }
  const std::vector<int64_t> matched =
      MatchChurnReads(base, writer.records(), reads);
  for (size_t r = 0; r < reads.size(); ++r) {
    if (matched[r] < 0) {
      report->Fail("read '" + reads[r].text + "' answered " +
                   std::to_string(reads[r].count) +
                   ", which no version in its window gives");
    }
  }

  if (!opts.trace) {
    AddLatency("read", LatenciesMs(a, RequestKind::kRead, t.warm_s),
               &report->metrics, report);
    AddLatency("write", LatenciesMs(a, RequestKind::kWrite, t.warm_s),
               &report->extra, report);
    report->extra["throughput_qps"] = {
        Throughput(second, RequestKind::kRead, t.closed_s), "req/s"};
    report->metrics["peak_rss_mb"] = {rss, "MiB"};
    report->extra["gen_lag_p99_ms"] = {GenLagP99Ms(a), "ms"};
    return Status::OK();
  }
  AddTcpLayers(a, second, t.warm_s, before, after, report);
  // Replay phase A in an order consistent with what each read observed:
  // the reads matched to version v run after write v and before write v+1.
  const size_t writes_a = phase_base[1];
  std::vector<std::vector<ReplayItem>> at_version(writes_a + 1);
  for (size_t r = 0; r < reads.size(); ++r) {
    if (read_of[r].first != 0 || matched[r] < 0) continue;
    const Outcome& o = a.outcomes[read_of[r].second];
    at_version[static_cast<size_t>(matched[r])].push_back(
        {o.conn, RequestKind::kRead, reads[r].text, reads[r].count});
  }
  ReplayInput replay;
  replay.conn_specs = cfg.conn_specs;
  replay.mutable_graphs = true;
  for (size_t v = 0; v <= writes_a; ++v) {
    for (ReplayItem& item : at_version[v]) {
      replay.items.push_back(std::move(item));
    }
    if (v < writes_a) {
      replay.items.push_back({0, RequestKind::kWrite,
                              writer.line(static_cast<uint32_t>(v)), 0});
    }
  }
  replay.scratch_dir = scratch + "/replay";
  ResetDir(replay.scratch_dir);
  AddReplayLayers(opts, std::move(replay), report);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const MetricMap& metrics, const std::string& prefix) {
  std::string out;
  for (const auto& [name, m] : metrics) {
    if (!out.empty()) out += ", ";
    out += Quote(prefix + name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out;
}

void PrintLines(const Report& r) {
  auto line = [&](const std::string& name, const MetricValue& m,
                  const char* tag) {
    std::printf("%-18s %-44s %14.4f %-9s", r.name.c_str(), name.c_str(),
                m.value, m.unit.c_str());
    auto n = r.samples.find(name);
    if (n != r.samples.end()) std::printf(" n=%zu", n->second);
    std::printf("%s\n", tag);
  };
  for (const auto& [name, m] : r.metrics) line(name, m, "");
  for (const auto& [name, m] : r.extra) line(name, m, "  (not gated)");
  std::printf("%-18s %-44s %14llu of %llu attempted\n", r.name.c_str(),
              "failed", static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "%s: FAILED: %s\n", r.name.c_str(), f.c_str());
  }
}

Status WriteOut(const Options& opts, const HostShape& host,
                const std::vector<Report>& reports) {
  std::ofstream out(opts.out);
  if (!out) return Status::Internal("cannot write " + opts.out);
  out << "{\"schema\": \"pathalg-e2e-v1\", \"seed\": " << opts.seed
      << ", \"seconds\": " << Num(opts.seconds)
      << ", \"trace\": " << (opts.trace ? 1 : 0) << ",\n \"host\": {\"nproc\": "
      << host.nproc << ", \"effective_cpus\": " << Num(host.effective_cpus)
      << ", \"build_type\": " << Quote(PATHALG_BENCH_BUILD_TYPE)
      << ", \"compiler\": " << Quote(PATHALG_BENCH_COMPILER)
      << ", \"loadavg_start\": " << Num(host.loadavg)
      << "},\n \"workloads\": {";
  for (size_t i = 0; i < reports.size(); ++i) {
    const Report& r = reports[i];
    std::string samples;
    for (const auto& [name, n] : r.samples) {
      if (!samples.empty()) samples += ", ";
      samples += Quote(name) + ": " + std::to_string(n);
    }
    std::string failures;
    for (const std::string& f : r.failures) {
      if (!failures.empty()) failures += ", ";
      failures += Quote(f);
    }
    out << (i ? ",\n  " : "\n  ") << Quote(r.name) << ": {\"correct\": "
        << (r.failed == 0 ? "true" : "false") << ", \"attempted\": "
        << r.attempted << ", \"failed\": " << r.failed << ", \"failed_frac\": "
        << Num(r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0)
        << ",\n   \"metrics\": {" << MetricsJson(r.metrics, "")
        << "},\n   \"samples\": {" << samples << "},\n   \"extra\": {"
        << MetricsJson(r.extra, "") << "},\n   \"failures\": [" << failures
        << "]}";
  }
  out << "}}\n";
  out.flush();
  return out ? Status::OK() : Status::Internal("short write to " + opts.out);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

int Usage(const char* msg) {
  std::fprintf(stderr,
               "pathalg_bench: %s\nusage: pathalg_bench [--workload "
               "point_reads|closure_analytics|live_churn|all] [--seed N] "
               "[--seconds S] [--trace 0|1] [--out FILE] [--work-dir DIR] "
               "[--verify_only]\n",
               msg);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opts, int* exit_code) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto need = [&]() {
      if (value == nullptr) {
        *exit_code = Usage((arg + " needs a value").c_str());
        return false;
      }
      ++i;
      return true;
    };
    if (arg == "--verify_only") {
      opts->verify_only = true;
    } else if (arg == "--workload") {
      if (!need()) return false;
      const std::string w = value;
      if (w == "all") {
        opts->workloads.assign(std::begin(kWorkloadNames),
                               std::end(kWorkloadNames));
      } else if (std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                           w) != std::end(kWorkloadNames)) {
        opts->workloads.push_back(w);
      } else {
        *exit_code = Usage(("unknown workload '" + w + "'").c_str());
        return false;
      }
    } else if (arg == "--seed") {
      if (!need()) return false;
      opts->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      if (!need()) return false;
      opts->seconds = std::strtod(value, nullptr);
      if (!(opts->seconds >= 1.0 && opts->seconds <= 600.0)) {
        *exit_code = Usage("--seconds must be in [1, 600]");
        return false;
      }
    } else if (arg == "--trace") {
      if (!need()) return false;
      const std::string t = value;
      if (t != "0" && t != "1") {
        *exit_code = Usage("--trace takes 0 or 1");
        return false;
      }
      opts->trace = t == "1";
    } else if (arg == "--out") {
      if (!need()) return false;
      opts->out = value;
    } else if (arg == "--work-dir") {
      if (!need()) return false;
      opts->work_dir = value;
    } else {
      *exit_code = Usage(("unknown flag '" + arg + "'").c_str());
      return false;
    }
  }
  if (opts->workloads.empty()) {
    opts->workloads.assign(std::begin(kWorkloadNames),
                           std::end(kWorkloadNames));
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opts;
  int exit_code = 0;
  if (!ParseArgs(argc, argv, &opts, &exit_code)) return exit_code;
  if (access(opts.serve.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "pathalg_bench: server binary %s is missing\n",
                 opts.serve.c_str());
    return 1;
  }
  const HostShape host = MeasureHost();
  PinCpus(&opts);
  std::error_code ec;
  fs::create_directories(opts.work_dir, ec);
  const std::string scratch =
      opts.work_dir + "/pathalg_bench-" + std::to_string(getpid());

  std::vector<Report> reports;
  for (const std::string& name : opts.workloads) {
    Report report;
    report.name = name;
    const std::string dir = scratch + "/" + name;
    ResetDir(dir);
    Status st;
    if (name == "point_reads") {
      st = RunPointReads(opts, dir, &report);
    } else if (name == "closure_analytics") {
      st = RunClosureAnalytics(opts, dir, &report);
    } else {
      st = RunLiveChurn(opts, dir, &report);
    }
    report.Check(st.ok(), st.ToString());
    reports.push_back(std::move(report));
  }
  fs::remove_all(scratch, ec);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string metrics;
  for (const Report& r : reports) {
    correct = correct && r.failed == 0;
    attempted += r.attempted;
    failed += r.failed;
    if (opts.verify_only) {
      std::printf("%-18s %s (%llu checks, %llu failed)\n", r.name.c_str(),
                  r.failed == 0 ? "ok" : "FAILED",
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed));
      for (const std::string& f : r.failures) {
        std::fprintf(stderr, "%s: FAILED: %s\n", r.name.c_str(), f.c_str());
      }
      continue;
    }
    PrintLines(r);
    const std::string part =
        MetricsJson(r.metrics, reports.size() > 1 ? r.name + "." : "");
    if (!part.empty()) metrics += (metrics.empty() ? "" : ", ") + part;
  }
  if (opts.verify_only) return correct ? 0 : 1;
  std::printf("host nproc=%zu effective_cpus=%.2f build=%s compiler=%s "
              "loadavg=%.2f\n",
              host.nproc, host.effective_cpus, PATHALG_BENCH_BUILD_TYPE,
              PATHALG_BENCH_COMPILER, host.loadavg);
  if (!opts.out.empty()) {
    const Status written = WriteOut(opts, host, reports);
    if (!written.ok()) {
      std::fprintf(stderr, "pathalg_bench: %s\n", written.ToString().c_str());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace pathalg

int main(int argc, char** argv) { return pathalg::bench::Main(argc, argv); }

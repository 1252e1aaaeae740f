// Tests for the concurrent serving subsystem (src/server): the
// GraphCatalog's load-once sharing, the SessionManager's admission gate
// and shared plan cache, the ServerSession protocol extensions (!limits,
// !threads, !timing, !record, catalog-backed !graph, extended !stats),
// live workload recording round-tripped through the .gqlw loader and the
// replay driver, the TCP front-end (two concurrent clients replaying
// different workloads byte-identical to serial single-client runs; BUSY
// on admission refusal), and a concurrent-session fuzz pinning the
// per-session determinism contract under real thread interleaving. The
// whole suite runs under TSan in CI — it is the data-race net for the
// catalog/cache/pool sharing surfaces.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/replay.h"
#include "engine/workload_file.h"
#include "server/graph_catalog.h"
#include "server/line_client.h"
#include "server/session.h"
#include "server/tcp_server.h"

namespace pathalg {
namespace {

using server::CatalogEntryPtr;
using server::GraphCatalog;
using server::LineClient;
using server::ServerSession;
using server::SessionManager;
using server::SessionManagerOptions;
using server::TcpServer;

/// Temp-file path unique to this test binary run.
std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "pathalg_server_test_" + stem;
}

/// Feeds `lines` to a fresh session of `manager` and returns the
/// concatenated response stream.
std::string RunSessionScript(SessionManager& manager,
                             const std::vector<std::string>& lines) {
  auto session = manager.Open();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return {};
  std::string out;
  for (const std::string& line : lines) {
    if (!(*session)->HandleLine(line, &out)) break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// GraphCatalog
// ---------------------------------------------------------------------------

TEST(GraphCatalogTest, LoadsEachSpecExactlyOnceAndShares) {
  GraphCatalog catalog;
  auto a = catalog.Get("figure1");
  auto b = catalog.Get("figure1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a).get(), (*b).get());            // same entry
  EXPECT_EQ((*a)->graph.get(), (*b)->graph.get());  // same graph instance
  EXPECT_EQ(catalog.size(), 1u);
  const server::CatalogCounters c = catalog.counters();
  EXPECT_EQ(c.loads, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ((*a)->stats.nodes, 7u);
  EXPECT_EQ((*a)->stats.edges, 11u);
}

TEST(GraphCatalogTest, CanonicalizesSpecWhitespace) {
  GraphCatalog catalog;
  auto a = catalog.Get("chain n=5  label=Knows");
  auto b = catalog.Get("  chain   n=5 label=Knows ");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a).get(), (*b).get());
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(GraphCatalogTest, EmptySpecIsFigure1) {
  GraphCatalog catalog;
  auto a = catalog.Get("");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->graph->num_nodes(), 7u);
  // The empty default and the explicit name share one entry — a server
  // started with no --graph must not build a second figure1 when a
  // client issues `!graph figure1`.
  auto b = catalog.Get("figure1");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a).get(), (*b).get());
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(GraphCatalogTest, DistinctSpecsLoadDistinctGraphs) {
  GraphCatalog catalog;
  auto a = catalog.Get("chain n=4");
  auto b = catalog.Get("cycle n=4");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->graph.get(), (*b)->graph.get());
  EXPECT_EQ(catalog.size(), 2u);
}

TEST(GraphCatalogTest, BadSpecsErrorAndAreNotCached) {
  GraphCatalog catalog;
  EXPECT_FALSE(catalog.Get("no_such_kind n=4").ok());
  EXPECT_FALSE(catalog.Get("csv /no/such/file.csv").ok());
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.counters().errors, 2u);
}

TEST(GraphCatalogTest, LoadsCsvGraphs) {
  const std::string path = TempPath("catalog.csv");
  {
    std::ofstream file(path);
    file << "N,a,Person\nN,b,Person\nE,e1,a,b,Knows\n";
  }
  GraphCatalog catalog;
  auto g = catalog.Get("csv " + path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ((*g)->graph->num_nodes(), 2u);
  EXPECT_EQ((*g)->graph->num_edges(), 1u);
  std::remove(path.c_str());
}

TEST(GraphCatalogTest, CsvSpecPreservesPathWhitespace) {
  // Canonicalization collapses whitespace in generator specs, but a csv
  // payload is a file path: interior runs must survive byte-for-byte or
  // the catalog would open a different file than the `# graph` directive
  // the same spec round-trips through.
  const std::string path = TempPath("catalog  double  space.csv");
  {
    std::ofstream file(path);
    file << "N,a,Person\nN,b,Person\nE,e1,a,b,Knows\n";
  }
  GraphCatalog catalog;
  auto g = catalog.Get("csv " + path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ((*g)->spec, "csv " + path);
  EXPECT_EQ((*g)->graph->num_edges(), 1u);
  std::remove(path.c_str());
}

TEST(GraphCatalogTest, ConcurrentGetsShareOneLoad) {
  GraphCatalog catalog;
  constexpr size_t kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<CatalogEntryPtr> entries(kThreads);
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto e = catalog.Get("skewed persons=60 seed=3");
      if (e.ok()) entries[i] = *e;
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < kThreads; ++i) {
    ASSERT_NE(entries[i], nullptr);
    EXPECT_EQ(entries[i].get(), entries[0].get());
  }
  EXPECT_EQ(catalog.counters().loads, 1u);
  EXPECT_EQ(catalog.counters().hits, kThreads - 1);
}

// ---------------------------------------------------------------------------
// SessionManager: admission gate + shared cache
// ---------------------------------------------------------------------------

TEST(SessionManagerTest, AdmissionGateRefusesOverMaxSessions) {
  GraphCatalog catalog;
  SessionManagerOptions options;
  options.max_sessions = 1;
  SessionManager manager(&catalog, options);

  auto first = manager.Open();
  ASSERT_TRUE(first.ok());
  auto second = manager.Open();
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.counters().rejected, 1u);

  first->reset();  // releases the slot
  auto third = manager.Open();
  EXPECT_TRUE(third.ok());
  const server::SessionCounters c = manager.counters();
  EXPECT_EQ(c.opened, 2u);
  EXPECT_EQ(c.active, 1u);
  EXPECT_EQ(c.peak_active, 1u);
}

TEST(SessionManagerTest, BusyLineNamesTheLimit) {
  GraphCatalog catalog;
  SessionManagerOptions options;
  options.max_sessions = 3;
  SessionManager manager(&catalog, options);
  EXPECT_EQ(manager.BusyLine(), "BUSY max_sessions=3 reached, retry later\n");
}

TEST(SessionManagerTest, SessionsShareThePlanCache) {
  GraphCatalog catalog;
  SessionManager manager(&catalog, {});
  auto a = manager.Open();
  auto b = manager.Open();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  engine::ExecStats stats;
  ASSERT_TRUE((*a)->engine()
                  .Execute("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)", &stats)
                  .ok());
  EXPECT_FALSE(stats.cache_hit);
  // Session B's first execution of the same text hits A's prepared plan.
  ASSERT_TRUE((*b)->engine()
                  .Execute("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)", &stats)
                  .ok());
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(&(*a)->engine().cache(), &(*b)->engine().cache());
  EXPECT_EQ(manager.shared_cache().stats().misses, 1u);
  EXPECT_EQ(manager.shared_cache().stats().hits, 1u);
}

TEST(SessionManagerTest, GraphSwapDoesNotClearTheSharedCache) {
  GraphCatalog catalog;
  SessionManager manager(&catalog, {});
  auto session = manager.Open();
  ASSERT_TRUE(session.ok());
  std::string out;
  (*session)->HandleLine("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)", &out);
  EXPECT_EQ(manager.shared_cache().size(), 1u);
  (*session)->HandleLine("!graph chain n=4 label=Knows", &out);
  EXPECT_EQ(manager.shared_cache().size(), 1u);  // kept: plans are
                                                 // graph-independent
}

// ---------------------------------------------------------------------------
// ServerSession protocol
// ---------------------------------------------------------------------------

struct SessionHarness {
  GraphCatalog catalog;
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<ServerSession> session;

  explicit SessionHarness(SessionManagerOptions options = {}) {
    manager = std::make_unique<SessionManager>(&catalog, options);
    auto opened = manager->Open();
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    session = std::move(opened).value();
  }

  std::string Handle(const std::string& line) {
    std::string out;
    session->HandleLine(line, &out);
    return out;
  }
};

TEST(ServerSessionTest, ThreadsCommandSetsEvalThreads) {
  SessionHarness h;
  EXPECT_EQ(h.Handle("!threads 4"), "OK threads 4\n");
  EXPECT_EQ(h.session->engine().eval_threads(), 4u);
  EXPECT_EQ(h.Handle("!threads nope"),
            "ERR !threads takes one non-negative integer "
            "(0 = hardware concurrency)\n");
}

TEST(ServerSessionTest, LimitsCommandSetsAndReportsEvalLimits) {
  SessionHarness h;
  EXPECT_EQ(h.Handle("!limits max_paths=10 max_len=3 truncate=1"),
            "OK limits max_paths=10 max_len=3 max_iterations=100000 "
            "truncate=1\n");
  EXPECT_EQ(h.session->engine().eval_limits().max_paths, 10u);
  EXPECT_EQ(h.session->engine().eval_limits().max_path_length, 3u);
  EXPECT_TRUE(h.session->engine().eval_limits().truncate);
  // Bare !limits prints without changing anything.
  EXPECT_EQ(h.Handle("!limits"),
            "OK limits max_paths=10 max_len=3 max_iterations=100000 "
            "truncate=1\n");
  EXPECT_EQ(h.Handle("!limits bogus=1"),
            "ERR !limits unknown key 'bogus' (known: max_paths, max_len, "
            "max_iterations, truncate)\n");
}

TEST(ServerSessionTest, LimitsActuallyGateEvaluation) {
  SessionHarness h;
  h.Handle("!timing off");
  const std::string unbounded =
      h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
  EXPECT_EQ(unbounded, "OK 12 paths\n");
  // A truncating budget must cap the same query's answer at exactly
  // max_paths distinct paths (algebra/eval_budget.h) — here the first two
  // base Knows edges, well under the 12-path full closure.
  h.Handle("!limits max_paths=2 truncate=1");
  EXPECT_EQ(h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)"),
            "OK 2 paths\n");
  // A non-truncating budget turns it into a clean protocol error.
  h.Handle("!limits truncate=0");
  const std::string err = h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
  EXPECT_EQ(err.rfind("ERR ", 0), 0u) << err;
}

TEST(ServerSessionTest, TimingToggleMakesResponsesDeterministic) {
  SessionHarness h;
  EXPECT_EQ(h.Handle("!timing off"), "OK timing off\n");
  EXPECT_EQ(h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)"),
            "OK 12 paths\n");
  EXPECT_EQ(h.Handle("!timing on"), "OK timing on\n");
  const std::string timed =
      h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
  EXPECT_NE(timed.find(" paths hit parse="), std::string::npos) << timed;
  EXPECT_EQ(h.Handle("!timing sideways"), "ERR !timing takes 'on' or 'off'\n");
}

TEST(ServerSessionTest, StatsIncludeCatalogSessionAndPoolLines) {
  SessionHarness h;
  const std::string stats = h.Handle("!stats");
  EXPECT_NE(stats.find("STAT catalog_graphs="), std::string::npos);
  EXPECT_NE(stats.find("STAT sessions_active=1"), std::string::npos);
  EXPECT_NE(stats.find("STAT pool_workers="), std::string::npos);
  EXPECT_NE(stats.find("OK stats\n"), std::string::npos);
}

TEST(ServerSessionTest, StatsIncludeRobustnessCounters) {
  SessionHarness h;
  const std::string stats = h.Handle("!stats");
  // A fresh manager: every robustness counter present and zero.
  EXPECT_NE(stats.find("STAT deadline_trips=0 cancelled_queries=0 "
                       "slow_client_drops=0 quarantined_snapshots=0"),
            std::string::npos)
      << stats;
  // The per-site fault-injection counters, one line, every site named.
  EXPECT_NE(stats.find("STAT faults snapshot-read="), std::string::npos);
  EXPECT_NE(stats.find(" snapshot-mmap="), std::string::npos);
  EXPECT_NE(stats.find(" catalog-load="), std::string::npos);
  EXPECT_NE(stats.find(" socket-write="), std::string::npos);
  EXPECT_NE(stats.find(" record-flush="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Deadlines & cooperative cancellation
// ---------------------------------------------------------------------------

TEST(ServerSessionTest, DeadlineCommandSetsAndClearsTheBudget) {
  SessionHarness h;
  EXPECT_EQ(h.Handle("!deadline 250"), "OK deadline 250\n");
  EXPECT_EQ(h.Handle("!deadline off"), "OK deadline off\n");
  EXPECT_EQ(h.Handle("!deadline 0"),
            "ERR !deadline takes a positive millisecond count or 'off'\n");
  EXPECT_EQ(h.Handle("!deadline soon"),
            "ERR !deadline takes a positive millisecond count or 'off'\n");
  EXPECT_NE(h.Handle("!help").find("!deadline <ms>|off"), std::string::npos);
}

/// The acceptance case: a query that would run far beyond the deadline is
/// cancelled cooperatively (the pinned contract ERR of
/// algebra/eval_budget.h), promptly enough that the same session answers
/// a follow-up query immediately — at one and at four eval threads, so
/// both the serial path and the chunked parallel merge paths honor the
/// token.
TEST(ServerSessionTest, DeadlineCancelsCooperativelyAndSessionStaysUsable) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SessionHarness h;
    h.Handle("!timing off");
    h.Handle("!threads " + std::to_string(threads));
    // A dense generator graph whose full TRAIL closure is astronomically
    // beyond a few milliseconds; the huge non-truncating max_paths keeps
    // the deterministic budget from firing first.
    EXPECT_EQ(h.Handle("!graph social persons=300 seed=1")
                  .rfind("OK graph ", 0),
              0u);
    h.Handle("!limits max_paths=100000000 truncate=0");
    h.Handle("!deadline 5");
    const std::string err =
        h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
    EXPECT_EQ(err.rfind("ERR ", 0), 0u) << err;
    EXPECT_NE(err.find("query cancelled (deadline)"), std::string::npos)
        << "threads=" << threads << ": " << err;
    EXPECT_NE(err.find("partial results were discarded"), std::string::npos);
    // The worker is immediately reusable: the very next request on the
    // same session (same engine, same pool) answers normally.
    h.Handle("!deadline off");
    const std::string ok =
        h.Handle("MATCH ANY SHORTEST p = (?x)-[:Knows]->(?y)");
    EXPECT_EQ(ok.rfind("OK ", 0), 0u) << ok;
    EXPECT_GE(h.manager->counters().deadline_trips, 1u)
        << "threads=" << threads;
    EXPECT_EQ(h.manager->counters().cancelled_queries, 0u);
    // The trip reached !stats too.
    const std::string stats = h.Handle("!stats");
    EXPECT_NE(stats.find("STAT deadline_trips=1"), std::string::npos)
        << stats;
  }
}

TEST(ServerSessionTest, DefaultDeadlineAppliesToFreshSessions) {
  SessionManagerOptions options;
  options.default_deadline_ms = 5;
  SessionHarness h(options);
  h.Handle("!timing off");
  h.Handle("!graph social persons=300 seed=1");
  h.Handle("!limits max_paths=100000000 truncate=0");
  const std::string err =
      h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
  EXPECT_NE(err.find("query cancelled (deadline)"), std::string::npos)
      << err;
  // `!deadline off` overrides the server default for this session.
  h.Handle("!deadline off");
  const std::string ok =
      h.Handle("MATCH ANY SHORTEST p = (?x)-[:Knows]->(?y)");
  EXPECT_EQ(ok.rfind("OK ", 0), 0u) << ok;
}

TEST(ServerSessionTest, BareGraphCommandIsAnError) {
  // `!graph` with no spec must not silently swap to the figure1 default.
  SessionHarness h;
  h.Handle("!graph chain n=6 label=Knows");
  EXPECT_EQ(h.Handle("!graph").rfind("ERR !graph needs a spec", 0), 0u);
  EXPECT_EQ(h.session->graph_spec(), "chain n=6 label=Knows");
}

TEST(ServerSessionTest, BaseProtocolStillWorks) {
  SessionHarness h;
  EXPECT_EQ(h.Handle("!cache clear"), "OK cache cleared\n");
  const std::string unknown = h.Handle("!frobnicate");
  EXPECT_EQ(unknown.rfind("ERR ", 0), 0u);
  std::string out;
  EXPECT_FALSE(h.session->HandleLine("!quit", &out));
  EXPECT_EQ(out, "OK bye\n");
}

// ---------------------------------------------------------------------------
// Live workload recording
// ---------------------------------------------------------------------------

TEST(ServerSessionTest, RecordRoundTripsThroughTheWorkloadLoader) {
  const std::string path = TempPath("record_roundtrip.gqlw");
  SessionHarness h;
  h.Handle("!timing off");
  EXPECT_EQ(h.Handle("!record " + path), "OK recording to " + path + "\n");
  EXPECT_TRUE(h.session->recording());
  h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
  h.Handle("MATCH ANY SHORTEST TRAIL p = (x)-[:Knows+]->(y)");
  h.Handle("THIS IS NOT GQL");  // errors are recorded too (no expect)
  EXPECT_EQ(h.Handle("!record stop"),
            "OK recorded 3 queries to " + path + "\n");
  EXPECT_FALSE(h.session->recording());

  auto workload = engine::LoadWorkloadFile(path);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ASSERT_EQ(workload->entries.size(), 3u);
  EXPECT_EQ(workload->entries[0].query,
            "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
  EXPECT_EQ(workload->entries[0].expect, std::optional<size_t>(12));
  EXPECT_EQ(workload->entries[1].expect, std::optional<size_t>(9));
  EXPECT_FALSE(workload->entries[2].expect.has_value());

  // The recorded workload replays cleanly with every expectation holding
  // except the deliberately-broken query's error (recorded, not fatal).
  auto report = engine::ReplayWorkload(*workload);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->errors, 1u);  // THIS IS NOT GQL
  EXPECT_EQ(report->expect_failures, 0u);
  std::remove(path.c_str());
}

TEST(ServerSessionTest, RecordCapturesTheSessionGraphAndThreads) {
  const std::string path = TempPath("record_graph.gqlw");
  SessionHarness h;
  h.Handle("!graph chain n=6 label=Knows");
  h.Handle("!threads 2");
  h.Handle("!record " + path);
  h.Handle("MATCH ALL WALK p = (?x)-[:Knows]->(?y)");
  h.Handle("!record stop");

  auto workload = engine::LoadWorkloadFile(path);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  EXPECT_EQ(workload->graph_spec, "chain n=6 label=Knows");
  EXPECT_EQ(workload->threads, std::optional<size_t>(2));
  ASSERT_EQ(workload->entries.size(), 1u);
  EXPECT_EQ(workload->entries[0].expect, std::optional<size_t>(5));
  std::remove(path.c_str());
}

TEST(ServerSessionTest, RecordSkipsExpectUnderNonDefaultLimits) {
  // .gqlw has no limits directive, so a cardinality shaped by !limits
  // (here: a truncated answer) must not be recorded as `# expect` — the
  // replay would run under default limits and fail the expectation.
  const std::string path = TempPath("record_limits.gqlw");
  SessionHarness h;
  h.Handle("!limits max_paths=2 truncate=1");
  h.Handle("!record " + path);
  h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");  // truncated: 4
  h.Handle("!record stop");

  auto workload = engine::LoadWorkloadFile(path);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ASSERT_EQ(workload->entries.size(), 1u);
  EXPECT_FALSE(workload->entries[0].expect.has_value());
  auto report = engine::ReplayWorkload(*workload);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());  // replays clean (12 paths, nothing pinned)
  std::remove(path.c_str());
}

TEST(ServerSessionTest, RecordRefusesDoubleStartAndGraphSwap) {
  const std::string path = TempPath("record_refuse.gqlw");
  SessionHarness h;
  h.Handle("!record " + path);
  EXPECT_EQ(h.Handle("!record /tmp/other.gqlw").rfind("ERR already", 0), 0u);
  EXPECT_EQ(h.Handle("!graph chain n=4").rfind("ERR cannot swap graph", 0),
            0u);
  h.Handle("!record stop");
  EXPECT_EQ(h.Handle("!record stop").rfind("ERR no active recording", 0), 0u);
  std::remove(path.c_str());
}

TEST(ServerSessionTest, RecordFailsFastOnUnwritablePath) {
  SessionHarness h;
  const std::string response =
      h.Handle("!record /no/such/dir/recording.gqlw");
  EXPECT_EQ(response.rfind("ERR cannot write workload file", 0), 0u)
      << response;
  // The session is not left half-recording: queries run normally and a
  // good path still works.
  EXPECT_FALSE(h.session->recording());
  const std::string path = TempPath("record_good_after_bad.gqlw");
  EXPECT_EQ(h.Handle("!record " + path), "OK recording to " + path + "\n");
  h.Handle("!record stop");
  std::remove(path.c_str());
}

TEST(ServerSessionTest, RecordOnCsvGraphRoundTrips) {
  // A workload recorded on a csv-backed catalog graph must load and
  // replay — `# graph csv <path>` is a first-class .gqlw spec.
  const std::string csv_path = TempPath("record_csv_graph.csv");
  {
    std::ofstream file(csv_path);
    file << "N,a,Person\nN,b,Person\nN,c,Person\n"
         << "E,e1,a,b,Knows\nE,e2,b,c,Knows\n";
  }
  const std::string path = TempPath("record_csv.gqlw");
  SessionHarness h;
  EXPECT_EQ(h.Handle("!graph csv " + csv_path).rfind("OK graph 3 nodes", 0),
            0u);
  h.Handle("!record " + path);
  h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
  h.Handle("!record stop");

  auto workload = engine::LoadWorkloadFile(path);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  EXPECT_EQ(workload->graph_spec, "csv " + csv_path);
  auto report = engine::ReplayWorkload(*workload);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->queries[0].result_paths, 3u);  // a→b, b→c, a→b→c
  std::remove(path.c_str());
  std::remove(csv_path.c_str());
}

TEST(ServerSessionTest, RecordingFlushesOnSessionTeardown) {
  const std::string path = TempPath("record_teardown.gqlw");
  {
    SessionHarness h;
    h.Handle("!record " + path);
    h.Handle("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
    // Session destroyed with the recording still active (a TCP client
    // disconnecting mid-recording).
  }
  auto workload = engine::LoadWorkloadFile(path);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  EXPECT_EQ(workload->entries.size(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// TCP front-end
// ---------------------------------------------------------------------------

#ifdef __unix__

/// Replays `lines` over one TCP connection, returning every response
/// line. `*ok` is false on any transport error.
std::vector<std::string> TcpScript(uint16_t port,
                                   const std::vector<std::string>& lines,
                                   bool* ok) {
  std::vector<std::string> responses;
  *ok = false;
  LineClient client;
  if (!client.Connect(port).ok()) return responses;
  for (const std::string& line : lines) {
    auto response = client.RoundTrip(line);
    if (!response.ok()) return responses;
    responses.push_back(*response);
  }
  *ok = true;
  return responses;
}

/// The acceptance criterion: two concurrent TCP clients replaying
/// *different* workloads each get byte-identical responses to a serial
/// single-client run of the same request stream.
TEST(TcpServerTest, TwoConcurrentClientsMatchSerialRuns) {
  const std::vector<std::string> workload_a = {
      "!timing off",
      "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
      "MATCH ANY SHORTEST TRAIL p = (x)-[:Knows+]->(y)",
      "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
      "!limits max_paths=3 truncate=1",
      "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
  };
  const std::vector<std::string> workload_b = {
      "!timing off",
      "MATCH ALL WALK p = (?x)-[:Likes/:Has_creator]->(?y)",
      "THIS IS NOT GQL",
      "!threads 2",
      "MATCH ANY SHORTEST p = (?x)-[:Knows+]->(?y)",
      "MATCH ALL WALK p = (?x)-[:Likes/:Has_creator]->(?y)",
  };

  // Serial references: each workload alone against a fresh server.
  std::vector<std::string> serial_a, serial_b;
  {
    GraphCatalog catalog;
    SessionManager manager(&catalog, {});
    TcpServer tcp(&manager);
    ASSERT_TRUE(tcp.Start({}).ok());
    bool ok = false;
    serial_a = TcpScript(tcp.port(), workload_a, &ok);
    ASSERT_TRUE(ok);
    serial_b = TcpScript(tcp.port(), workload_b, &ok);
    ASSERT_TRUE(ok);
    tcp.Stop();
  }
  ASSERT_EQ(serial_a.size(), workload_a.size());
  ASSERT_EQ(serial_b.size(), workload_b.size());

  // Concurrent run: both clients at once against one shared server.
  GraphCatalog catalog;
  SessionManager manager(&catalog, {});
  TcpServer tcp(&manager);
  ASSERT_TRUE(tcp.Start({}).ok());
  std::vector<std::string> concurrent_a, concurrent_b;
  std::atomic<bool> ok_a{false}, ok_b{false};
  std::thread ta([&] {
    bool ok = false;
    concurrent_a = TcpScript(tcp.port(), workload_a, &ok);
    ok_a = ok;
  });
  std::thread tb([&] {
    bool ok = false;
    concurrent_b = TcpScript(tcp.port(), workload_b, &ok);
    ok_b = ok;
  });
  ta.join();
  tb.join();
  tcp.Stop();
  ASSERT_TRUE(ok_a.load());
  ASSERT_TRUE(ok_b.load());
  EXPECT_EQ(concurrent_a, serial_a);
  EXPECT_EQ(concurrent_b, serial_b);
}

/// Regression for the Nagle + delayed-ACK stall: a client that pipelines
/// two requests in one send gets the second response only after the
/// server's TCP stack releases it. Without TCP_NODELAY on the server side
/// that second write waits for the ACK of the first, which the client
/// delays by ~40 ms because it has nothing to send meanwhile. With the
/// option set a pair costs well under a millisecond on loopback; the
/// bound leaves 20 ms per round for sanitizer builds and a loaded host.
TEST(ServerTransportTest, PipelinedPairsAreNotHeldBackByNagle) {
  GraphCatalog catalog;
  SessionManager manager(&catalog, {});
  TcpServer tcp(&manager);
  ASSERT_TRUE(tcp.Start({}).ok());
  LineClient client;
  ASSERT_TRUE(client.Connect(tcp.port()).ok());
  // Open the session and load figure1 before the clock starts.
  ASSERT_TRUE(client.RoundTrip("!timing off").ok());
  const std::string pair =
      "MATCH ALL WALK p = (?x)-[:Knows]->(?y)\n"
      "MATCH ALL WALK p = (?x)-[:Likes/:Has_creator]->(?y)\n";
  constexpr int kRounds = 20;
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(client.SendLine(pair).ok());  // both lines in one write()
    for (int answer = 0; answer < 2; ++answer) {
      auto line = client.ReadLine();
      ASSERT_TRUE(line.ok()) << line.status().ToString();
      EXPECT_EQ(line->rfind("OK ", 0), 0u) << *line;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  tcp.Stop();
  EXPECT_LT(elapsed, std::chrono::milliseconds(kRounds * 20))
      << "pipelined pairs took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms for " << kRounds << " rounds";
}

TEST(TcpServerTest, OverAdmissionGetsBusyLineAndClose) {
  GraphCatalog catalog;
  SessionManagerOptions options;
  options.max_sessions = 1;
  SessionManager manager(&catalog, options);
  TcpServer tcp(&manager);
  ASSERT_TRUE(tcp.Start({}).ok());

  LineClient holder;
  ASSERT_TRUE(holder.Connect(tcp.port()).ok());
  // Force the round trip so the holder's session is provably open before
  // the second connection races in.
  auto held = holder.RoundTrip("!timing off");
  ASSERT_TRUE(held.ok());

  LineClient refused;
  ASSERT_TRUE(refused.Connect(tcp.port()).ok());
  auto busy = refused.ReadLine();
  ASSERT_TRUE(busy.ok()) << busy.status().ToString();
  EXPECT_EQ(*busy, "BUSY max_sessions=1 reached, retry later");
  // The refused connection is closed server-side: next read is EOF.
  EXPECT_FALSE(refused.ReadLine().ok());

  // Releasing the held slot re-admits. The holder's handler processes
  // the EOF asynchronously on a pool worker, so retries may still see
  // BUSY (each one counting a rejection) until the slot is back.
  holder.Close();
  LineClient retry;
  ASSERT_TRUE(retry.Connect(tcp.port()).ok());
  bool admitted = false;
  for (int spin = 0; spin < 500 && !admitted; ++spin) {
    auto r = retry.RoundTrip("!timing off");
    if (r.ok() && *r == "OK timing off") {
      admitted = true;
      break;
    }
    retry.Close();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (!retry.Connect(tcp.port()).ok()) break;
  }
  EXPECT_TRUE(admitted);
  tcp.Stop();
  EXPECT_GE(manager.counters().rejected, 1u);
}

TEST(TcpServerTest, BrokenDefaultGraphAnswersErrNotBusy) {
  // A session-open failure that is not an admission refusal must read as
  // an error, not as a retryable BUSY: with max_sessions=0 (unlimited) a
  // BUSY line would tell the client to retry a graph spec that can never
  // load.
  GraphCatalog catalog;
  SessionManagerOptions options;
  options.max_sessions = 0;  // unlimited: admission can never refuse
  options.default_graph_spec = "no_such_generator n=4";
  SessionManager manager(&catalog, options);
  TcpServer tcp(&manager);
  ASSERT_TRUE(tcp.Start({}).ok());
  LineClient client;
  ASSERT_TRUE(client.Connect(tcp.port()).ok());
  auto line = client.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;
  EXPECT_EQ(line->find("BUSY"), std::string::npos) << *line;
  tcp.Stop();
  // A failed open mints nothing: the session counters stay clean.
  const server::SessionCounters c = manager.counters();
  EXPECT_EQ(c.opened, 0u);
  EXPECT_EQ(c.closed, 0u);
  EXPECT_EQ(c.active, 0u);
  EXPECT_EQ(c.peak_active, 0u);
}

TEST(TcpServerTest, StopCancelsInFlightQueriesUnderTheDrainDeadline) {
  // Graceful shutdown end to end: a query far exceeding the drain budget
  // is in flight when Stop() is called; Stop must close the intake, wait
  // out the (short) drain deadline, cancel the query through the
  // manager's shutdown token, and return — with the cancellation counted.
  GraphCatalog catalog;
  SessionManager manager(&catalog, {});
  TcpServer tcp(&manager);
  server::TcpServerOptions options;
  options.drain_deadline_ms = 50;
  ASSERT_TRUE(tcp.Start(options).ok());

  std::atomic<bool> query_sent{false};
  std::thread client([&] {
    LineClient c;
    if (!c.Connect(tcp.port()).ok()) return;
    if (!c.RoundTrip("!timing off").ok()) return;
    if (!c.RoundTrip("!limits max_paths=100000000 truncate=0").ok()) return;
    if (!c.RoundTrip("!graph social persons=300 seed=1").ok()) return;
    query_sent = true;
    // Runs for minutes if never cancelled; the drain must cut it short.
    // The response may be the cancellation ERR or a dropped connection
    // (the forced phase of Stop shuts the socket) — both are clean ends.
    (void)c.RoundTrip("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)");
  });
  for (int spin = 0; spin < 2000 && !query_sent; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(query_sent.load());
  // Let the query line reach the handler and start evaluating.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  tcp.Stop();  // returns ≈ drain deadline + cancellation latency later
  client.join();
  EXPECT_FALSE(tcp.running());
  EXPECT_EQ(manager.counters().active, 0u);
  EXPECT_GE(manager.counters().cancelled_queries, 1u);
  EXPECT_EQ(manager.counters().deadline_trips, 0u);
}

TEST(TcpServerTest, StopDrainsOpenConnections) {
  GraphCatalog catalog;
  SessionManager manager(&catalog, {});
  auto tcp = std::make_unique<TcpServer>(&manager);
  ASSERT_TRUE(tcp->Start({}).ok());
  LineClient idle;
  ASSERT_TRUE(idle.Connect(tcp->port()).ok());
  ASSERT_TRUE(idle.RoundTrip("!timing off").ok());
  tcp->Stop();  // must not hang on the idle connection
  EXPECT_FALSE(tcp->running());
  EXPECT_EQ(manager.counters().active, 0u);
  tcp.reset();
}

#endif  // __unix__

// ---------------------------------------------------------------------------
// Concurrent-session fuzz: per-session determinism under interleaving
// ---------------------------------------------------------------------------

/// Seeded per-session request streams drawn from a pool of protocol-level
/// behaviors: plain queries, limit changes, thread-count changes, errors.
std::vector<std::string> FuzzScript(uint64_t seed) {
  static const std::vector<std::string> kPool = {
      "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
      "MATCH ANY SHORTEST TRAIL p = (x)-[:Knows+]->(y)",
      "MATCH ANY SHORTEST p = (?x)-[:Knows+]->(?y)",
      "MATCH ALL WALK p = (?x)-[:Likes/:Has_creator]->(?y)",
      "MATCH ALL ACYCLIC p = (?x)-[:Knows+]->(?y)",
      "THIS IS NOT GQL",
      "!limits max_paths=5 truncate=1",
      "!limits max_paths=1000000 truncate=0",
      "!threads 2",
      "!threads 1",
      "!cache clear",
  };
  std::mt19937_64 rng(seed);
  std::vector<std::string> script = {"!timing off"};
  const size_t n = 8 + rng() % 8;
  for (size_t i = 0; i < n; ++i) {
    script.push_back(kPool[rng() % kPool.size()]);
  }
  return script;
}

TEST(ServerFuzzTest, ConcurrentSessionsByteIdenticalToSerialRuns) {
  constexpr size_t kSessions = 6;
  constexpr uint64_t kSeedBase = 7700;

  // Serial references: one fresh single-session server per script.
  std::vector<std::vector<std::string>> scripts;
  std::vector<std::string> references;
  for (size_t s = 0; s < kSessions; ++s) {
    scripts.push_back(FuzzScript(kSeedBase + s));
    GraphCatalog catalog;
    SessionManager manager(&catalog, {});
    references.push_back(RunSessionScript(manager, scripts.back()));
    ASSERT_FALSE(references.back().empty());
  }

  // Concurrent run: all sessions at once over one shared catalog + cache,
  // repeated a few times to vary the interleaving.
  for (int trial = 0; trial < 3; ++trial) {
    GraphCatalog catalog;
    SessionManagerOptions options;
    options.max_sessions = kSessions;
    SessionManager manager(&catalog, options);
    std::vector<std::string> outputs(kSessions);
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kSessions; ++s) {
      threads.emplace_back(
          [&, s] { outputs[s] = RunSessionScript(manager, scripts[s]); });
    }
    for (std::thread& t : threads) t.join();
    for (size_t s = 0; s < kSessions; ++s) {
      EXPECT_EQ(outputs[s], references[s])
          << "session " << s << " diverged from its serial run (trial "
          << trial << ", seed " << kSeedBase + s << ")";
    }
  }
}

}  // namespace
}  // namespace pathalg

#ifndef PATHALG_SERVER_SESSION_H_
#define PATHALG_SERVER_SESSION_H_

/// \file session.h
/// The concurrent server's session layer. A SessionManager owns the
/// process-wide sharing surfaces — the GraphCatalog, one thread-safe
/// PlanCache handed to every session, the admission gate — and mints
/// ServerSessions: one per connection, each wrapping a private
/// engine::QueryEngine (per-session stats/options) over the shared graph
/// and cache.
///
/// A ServerSession answers the line protocol behind `pathalg_serve`: one
/// request per line in (blank lines are ignored), one or more response
/// lines out, the last one "OK ..." or "ERR ...". Requests:
///
///   <query>                    "OK <n> paths hit|miss parse=<us>us
///                              opt=<us>us eval=<us>us total=<us>us", or
///                              just "OK <n> paths" under `!timing off`;
///                              errors answer "ERR <code>: <message>"
///                              (always one line)
///   !threads N                 per-session eval thread count
///   !limits [k=v ...]          per-session EvalLimits (admission control:
///                              max_paths, max_len, max_iterations,
///                              truncate=0|1); bare !limits prints them
///   !deadline <ms>|off         per-query wall-clock deadline: each later
///                              query runs under a CancelToken armed with
///                              this budget and trips to the pinned
///                              "query cancelled (deadline)" ERR
///                              (algebra/eval_budget.h). Wall-clock trips
///                              are excluded from the byte-identity
///                              surface the same way `!timing` output is.
///   !timing on|off             timings off = deterministic "OK <n> paths"
///                              responses (the byte-identity surface)
///   !record <path> | stop      live workload recording: queries issued
///                              while recording are captured (successful
///                              ones with `# expect <n>`) and written as a
///                              replayable .gqlw via FormatWorkload
///   !graph <spec>              swap the session graph *via the catalog*
///                              (shared, load-once; never clears the
///                              shared plan cache)
///   !mutate <op ...>           live graph mutation (mutation_dir mode):
///                              add-node [name] [label=L] [k=v ...],
///                              add-edge <src> <dst> [label=L] [name=N]
///                              [k=v ...], rm-node <name>, rm-edge <name>.
///                              Journalled (fsync) before the OK line,
///                              which echoes the resolved record; writers
///                              are serialized per graph, in-flight
///                              queries keep their pinned version
///   !version                   content-addressed id of the session
///                              graph's current version ("OK version
///                              <16 hex digits>"); two graphs share an id
///                              iff their snapshots are byte-identical
///   !stats                     "STAT ..." lines: session query and stage
///                              totals, plan cache, graph, catalog,
///                              snapshots, sessions, pool, mutation,
///                              robustness and fault-injection counters,
///                              keys and line order pinned (clients parse
///                              them by key)
///   !cache clear               empties the shared plan cache
///   !help                      one HELP line listing the commands
///   !quit                      "OK bye"; HandleLine returns false
///
/// Anything else starting with '!' answers "ERR Invalid argument: unknown
/// command '<line>' (try !help)".
///
/// Determinism contract: with `!timing off`, a session's responses to
/// queries and to the session-scoped commands are byte-identical to a
/// serial single-client run of the same request stream — shared-cache
/// hit/miss and scheduling affect latency only, never path counts,
/// order of response lines, or error text. (`!stats` is the deliberate
/// exception: its whole point is to report the shared mutable counters,
/// which legitimately differ under concurrency.) The concurrent fuzz
/// suite in tests/server_test.cc pins this.
///
/// Thread model: one ServerSession is used by one connection handler at a
/// time (not internally synchronized); the manager's counters and the
/// shared pieces are thread-safe.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/cancel.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "engine/query_engine.h"
#include "engine/workload_file.h"
#include "server/graph_catalog.h"

namespace pathalg {
namespace server {

struct SessionManagerOptions {
  /// Admission gate: concurrent sessions beyond this are refused with a
  /// BUSY line ("Complexity of Evaluating GQL Queries" motivates budget
  /// admission; this is the connection-level analogue). 0 = unlimited.
  size_t max_sessions = 8;
  /// Graph spec sessions start on (catalog key; empty = figure1).
  std::string default_graph_spec;
  /// Per-query deadline every session starts with (0 = none); sessions
  /// adjust theirs with `!deadline <ms>|off`. Surfaced as
  /// `pathalg_serve --default-deadline-ms`.
  uint64_t default_deadline_ms = 0;
  /// Base engine options for every session. `shared_cache` is overwritten
  /// with the manager's process-wide cache; `plan_cache_capacity` sizes
  /// that cache. The optimizer's GraphStats pointer is nulled: plans in a
  /// shared cache must be graph-independent, and sessions may sit on
  /// different catalog graphs.
  engine::EngineOptions engine;
};

/// Monotonic + gauge counters; exposed through `!stats`.
struct SessionCounters {
  uint64_t opened = 0;
  uint64_t closed = 0;
  uint64_t rejected = 0;  // admission-gate refusals
  size_t active = 0;
  size_t peak_active = 0;
  /// Queries whose CancelToken tripped on its armed deadline.
  uint64_t deadline_trips = 0;
  /// Queries cancelled externally (shutdown drain) — disjoint from
  /// deadline_trips.
  uint64_t cancelled_queries = 0;
  /// Connections dropped because a response write timed out against a
  /// slow/stuck client (reported by the transport layer).
  uint64_t slow_client_drops = 0;
};

/// Request counters of one session (`pathalg_serve`'s stdin mode reports
/// them and gates `--min-ok` on `ok`).
struct ServeResult {
  size_t requests = 0;  // non-empty lines handled
  size_t ok = 0;        // responses that began with "OK"
  size_t errors = 0;    // responses that began with "ERR"
};

/// Flattens newlines to spaces: the protocol is one line per response,
/// but Status messages (parser diagnostics) may span lines.
std::string OneLine(std::string s);

class SessionManager;

/// One connection's protocol state machine. Create via
/// SessionManager::Open(); destroying the session releases its admission
/// slot and flushes any active recording.
class ServerSession {
 public:
  ~ServerSession();
  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Handles one request line (no trailing newline), appending one or
  /// more '\n'-terminated response lines to `out`. Returns false when the
  /// session should end (`!quit`).
  bool HandleLine(const std::string& line, std::string* out);

  const ServeResult& result() const { return result_; }
  engine::QueryEngine& engine() { return engine_; }
  const std::string& graph_spec() const { return graph_spec_; }
  bool recording() const { return recording_; }

 private:
  friend class SessionManager;
  ServerSession(SessionManager* manager, CatalogEntryPtr catalog_entry,
                engine::EngineOptions options);

  /// Answers one `!command` line (trimmed); false for `!quit`.
  bool HandleCommand(std::string_view line, std::string* out);
  /// Appends a finished query to the active recording.
  void RecordQuery(std::string_view query, const Result<PathSet>& result);
  /// The `!stats` "STAT ..." lines (no trailing OK).
  std::string StatsLines() const;
  /// Finishes an active recording, writing the .gqlw; returns the status
  /// line ("OK recorded ..." or "ERR ...").
  std::string StopRecording();
  /// Re-points the engine at the live graph's current version when it
  /// moved (this session's own !mutate, or another session's). Cheap when
  /// nothing changed: one shared_ptr copy and a pointer compare.
  void RefreshLiveGraph();

  SessionManager* const manager_;
  CatalogEntryPtr catalog_entry_;  // keeps the shared graph alive
  std::string graph_spec_;
  engine::QueryEngine engine_;
  ServeResult result_;

  /// `!timing`: include the cache outcome and per-stage microseconds in
  /// query responses. Off, a query answers exactly "OK <n> paths" — the
  /// deterministic surface the byte-identity contract is asserted on.
  bool timings_ = true;

  /// Per-query wall-clock budget (`!deadline`); 0 = none.
  uint64_t deadline_ms_ = 0;

  bool recording_ = false;
  std::string record_path_;
  engine::Workload recorded_;
};

class SessionManager {
 public:
  /// `catalog` must outlive the manager and every session.
  SessionManager(GraphCatalog* catalog, SessionManagerOptions options);

  /// Opens a session on the default graph (or `graph_spec` when given).
  /// ResourceExhausted when the admission gate is full — the transport
  /// layer turns that into the BUSY line.
  Result<std::unique_ptr<ServerSession>> Open(
      std::string_view graph_spec = {});

  /// The line-protocol BUSY response for a gate refusal.
  std::string BusyLine() const;

  GraphCatalog& catalog() { return *catalog_; }
  engine::PlanCache& shared_cache() { return *shared_cache_; }
  size_t max_sessions() const { return options_.max_sessions; }
  SessionCounters counters() const;

  /// The process-wide shutdown token. Every per-query CancelToken is
  /// parented to it, so tripping it (the TCP server's drain-deadline
  /// path) cancels every in-flight query at its next poll. Sticky: a
  /// manager whose token tripped is shutting down for good.
  const CancelToken& shutdown_token() const { return shutdown_token_; }
  void CancelAllQueries() { shutdown_token_.Cancel(); }

  /// Counter feeds from the session/transport layers (thread-safe).
  void RecordQueryCancelled(bool deadline);
  void RecordSlowClientDrop();

 private:
  friend class ServerSession;
  void ReleaseSlot();

  GraphCatalog* const catalog_;
  SessionManagerOptions options_;
  std::shared_ptr<engine::PlanCache> shared_cache_;
  CancelToken shutdown_token_;  // internally synchronized (atomics)
  mutable Mutex mu_;
  SessionCounters counters_ PA_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace pathalg

#endif  // PATHALG_SERVER_SESSION_H_

#include "server/session.h"

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "algebra/eval_budget.h"
#include "common/fault_injection.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "storage/snapshot_writer.h"

namespace pathalg {
namespace server {

namespace {

std::string LimitsLine(const EvalLimits& l) {
  return "OK limits max_paths=" + std::to_string(l.max_paths) +
         " max_len=" + std::to_string(l.max_path_length) +
         " max_iterations=" + std::to_string(l.max_iterations) +
         " truncate=" + (l.truncate ? "1" : "0") + "\n";
}

std::string VersionHex(uint64_t version) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(version));
  return hex;
}

/// The OK line of a query that produced `paths` paths.
void AppendQueryOk(size_t paths, const engine::ExecStats& stats,
                   bool timings, std::string* out) {
  *out += "OK " + std::to_string(paths) + " paths";
  if (timings) {
    *out += std::string(" ") + (stats.cache_hit ? "hit" : "miss") +
            " parse=" + std::to_string(stats.parse_us) +
            "us opt=" + std::to_string(stats.optimize_us) +
            "us eval=" + std::to_string(stats.eval_us) +
            "us total=" + std::to_string(stats.total_us) + "us";
  }
  *out += "\n";
}

}  // namespace

std::string OneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

SessionManager::SessionManager(GraphCatalog* catalog,
                               SessionManagerOptions options)
    : catalog_(catalog), options_(std::move(options)) {
  // Plans in the shared cache are reused across sessions that may sit on
  // different catalog graphs, so preparation must not depend on the
  // graph: drop any graph-derived optimizer statistics from the base
  // options. (Text + OptimizerOptions is then the full prepare input,
  // which the cache key covers.)
  options_.engine.query.optimizer.stats = nullptr;
  shared_cache_ = std::make_shared<engine::PlanCache>(
      options_.engine.plan_cache_capacity);
  options_.engine.shared_cache = shared_cache_;
}

Result<std::unique_ptr<ServerSession>> SessionManager::Open(
    std::string_view graph_spec) {
  {
    MutexLock lock(mu_);
    if (options_.max_sessions != 0 &&
        counters_.active >= options_.max_sessions) {
      ++counters_.rejected;
      return Status::ResourceExhausted(
          "session limit reached (max_sessions=" +
          std::to_string(options_.max_sessions) + ")");
    }
    // The slot is claimed here (so a racing Open sees the gate full),
    // but opened/peak_active only count once a session is actually
    // minted — a graph-load failure must not read as sessions served.
    ++counters_.active;
  }
  const std::string_view spec =
      graph_spec.empty() ? std::string_view(options_.default_graph_spec)
                         : graph_spec;
  Result<CatalogEntryPtr> entry = catalog_->Get(spec);
  if (!entry.ok()) {
    MutexLock lock(mu_);
    --counters_.active;  // undo the claim; nothing opened, nothing closed
    return entry.status();
  }
  {
    MutexLock lock(mu_);
    ++counters_.opened;
    if (counters_.active > counters_.peak_active) {
      counters_.peak_active = counters_.active;
    }
  }
  return std::unique_ptr<ServerSession>(
      new ServerSession(this, std::move(entry).value(), options_.engine));
}

std::string SessionManager::BusyLine() const {
  return "BUSY max_sessions=" + std::to_string(options_.max_sessions) +
         " reached, retry later\n";
}

void SessionManager::ReleaseSlot() {
  MutexLock lock(mu_);
  --counters_.active;
  ++counters_.closed;
}

void SessionManager::RecordQueryCancelled(bool deadline) {
  MutexLock lock(mu_);
  if (deadline) {
    ++counters_.deadline_trips;
  } else {
    ++counters_.cancelled_queries;
  }
}

void SessionManager::RecordSlowClientDrop() {
  MutexLock lock(mu_);
  ++counters_.slow_client_drops;
}

SessionCounters SessionManager::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

// ---------------------------------------------------------------------------
// ServerSession
// ---------------------------------------------------------------------------

ServerSession::ServerSession(SessionManager* manager,
                             CatalogEntryPtr catalog_entry,
                             engine::EngineOptions options)
    : manager_(manager),
      catalog_entry_(std::move(catalog_entry)),
      graph_spec_(catalog_entry_->spec),
      engine_(catalog_entry_->graph, std::move(options)) {
  deadline_ms_ = manager_->options_.default_deadline_ms;
}

ServerSession::~ServerSession() {
  if (recording_) StopRecording();  // best-effort flush on disconnect
  manager_->ReleaseSlot();
}

std::string ServerSession::StopRecording() {
  recording_ = false;
  const size_t n = recorded_.entries.size();
  std::ofstream file(record_path_);
  if (!file) {
    return "ERR cannot write workload file '" + record_path_ + "'\n";
  }
  file << engine::FormatWorkload(recorded_);
  file.flush();
  // The record-flush injection site: models the final flush losing bytes
  // (disk full, NFS hiccup). Shares the real short-write ERR shape so
  // clients and tests see one failure surface.
  if (FaultInjector::Global().ShouldFail(FaultSite::kRecordFlush) || !file) {
    return "ERR short write to workload file '" + record_path_ + "'\n";
  }
  std::string line = "OK recorded " + std::to_string(n) + " queries to " +
                     record_path_ + "\n";
  record_path_.clear();
  recorded_ = engine::Workload();
  return line;
}

void ServerSession::RecordQuery(std::string_view query,
                                const Result<PathSet>& result) {
  // A leading '#' would read back as a directive; such lines are
  // unrepresentable in .gqlw (and are never valid GQL anyway).
  if (query[0] == '#') return;
  engine::WorkloadEntry entry;
  entry.name = "q" + std::to_string(recorded_.entries.size() + 1);
  entry.query = std::string(query);
  // Successful queries replay as correctness checks: the recorded
  // cardinality becomes `# expect`, which ReplayWorkload asserts — but
  // only when the session runs under the default EvalLimits. The .gqlw
  // format has no limits directive, so a cardinality shaped by `!limits`
  // (a truncated answer, say) would fail every replay.
  const EvalLimits& l = engine_.eval_limits();
  const EvalLimits defaults;
  const bool default_limits = l.max_paths == defaults.max_paths &&
                              l.max_path_length == defaults.max_path_length &&
                              l.max_iterations == defaults.max_iterations &&
                              l.truncate == defaults.truncate;
  if (result.ok() && default_limits) entry.expect = result->size();
  recorded_.entries.push_back(std::move(entry));
}

std::string ServerSession::StatsLines() const {
  const engine::SessionStats& s = engine_.session_stats();
  const engine::PlanCacheStats c = engine_.cache().stats();
  const GraphCatalog& catalog = manager_->catalog();
  const CatalogCounters cat = catalog.counters();
  const SessionCounters ses = manager_->counters();
  const ThreadPoolCounters pool = ThreadPool::Shared().Counters();
  std::string out;
  out += "STAT queries=" + std::to_string(s.queries) +
         " errors=" + std::to_string(s.errors) +
         " paths=" + std::to_string(s.paths_produced) + "\n";
  out += "STAT parse_us=" + std::to_string(s.parse_us) +
         " optimize_us=" + std::to_string(s.optimize_us) +
         " eval_us=" + std::to_string(s.eval_us) +
         " total_us=" + std::to_string(s.total_us) + "\n";
  out += "STAT cache_size=" + std::to_string(engine_.cache().size()) +
         " cache_hits=" + std::to_string(c.hits) +
         " cache_misses=" + std::to_string(c.misses) +
         " cache_evictions=" + std::to_string(c.evictions) + "\n";
  out += "STAT graph_nodes=" + std::to_string(engine_.graph().num_nodes()) +
         " graph_edges=" + std::to_string(engine_.graph().num_edges()) + "\n";
  out += "STAT catalog_graphs=" + std::to_string(catalog.size()) +
         " catalog_loads=" + std::to_string(cat.loads) +
         " catalog_hits=" + std::to_string(cat.hits) +
         " catalog_errors=" + std::to_string(cat.errors) + "\n";
  out += "STAT snapshot_hits=" + std::to_string(cat.snapshot_hits) +
         " snapshot_misses=" + std::to_string(cat.snapshot_misses) +
         " snapshot_evictions=" + std::to_string(cat.snapshot_evictions) +
         "\n";
  out += "STAT sessions_active=" + std::to_string(ses.active) +
         " sessions_peak=" + std::to_string(ses.peak_active) +
         " sessions_opened=" + std::to_string(ses.opened) +
         " sessions_closed=" + std::to_string(ses.closed) +
         " sessions_rejected=" + std::to_string(ses.rejected) +
         " max_sessions=" + std::to_string(manager_->max_sessions()) + "\n";
  out += "STAT pool_workers=" + std::to_string(pool.workers) +
         " pool_regions=" + std::to_string(pool.regions) +
         " pool_chunks=" + std::to_string(pool.chunks) +
         " pool_steals=" + std::to_string(pool.steals) +
         " pool_tasks=" + std::to_string(pool.tasks_submitted) + "\n";
  const CatalogMutationStats mut = catalog.mutation_stats();
  out += "STAT mutation_graphs=" + std::to_string(mut.live_graphs) +
         " mutations_applied=" + std::to_string(mut.totals.mutations_applied) +
         " mutations_rejected=" +
         std::to_string(mut.totals.mutations_rejected) +
         " mutations_pending=" + std::to_string(mut.totals.pending) +
         " compactions=" + std::to_string(mut.totals.compactions) +
         " materializations=" + std::to_string(mut.totals.materializations) +
         " recovered_records=" +
         std::to_string(mut.totals.recovered_records) +
         " stale_journals=" + std::to_string(mut.totals.stale_journals) +
         "\n";
  out += "STAT deadline_trips=" + std::to_string(ses.deadline_trips) +
         " cancelled_queries=" + std::to_string(ses.cancelled_queries) +
         " slow_client_drops=" + std::to_string(ses.slow_client_drops) +
         " quarantined_snapshots=" +
         std::to_string(cat.quarantined_snapshots) + "\n";
  const FaultInjector& faults = FaultInjector::Global();
  std::string fault_line = "STAT faults";
  for (int s = 0; s < kNumFaultSites; ++s) {
    const FaultSite site = static_cast<FaultSite>(s);
    fault_line += std::string(" ") + FaultSiteName(site) + "=" +
                  std::to_string(faults.Injected(site));
  }
  out += fault_line + "\n";
  return out;
}

bool ServerSession::HandleCommand(std::string_view line, std::string* out) {
  const size_t space = line.find_first_of(" \t");
  const std::string_view cmd = line.substr(0, space);
  const std::string_view rest =
      space == std::string_view::npos
          ? std::string_view()
          : StripWhitespace(line.substr(space + 1));
  auto ok = [&](std::string response) {
    *out += std::move(response);
    ++result_.ok;
  };
  auto err = [&](std::string response) {
    *out += std::move(response);
    ++result_.errors;
  };

  if (cmd == "!threads") {
    size_t n = 0;
    if (!ParseSizeT(rest, &n)) {
      err("ERR !threads takes one non-negative integer "
          "(0 = hardware concurrency)\n");
      return true;
    }
    engine_.SetEvalThreads(n);
    ok("OK threads " + std::to_string(n) + "\n");
    return true;
  }

  if (cmd == "!limits") {
    EvalLimits limits = engine_.eval_limits();
    for (std::string_view word : SplitWhitespace(rest)) {
      const size_t eq = word.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        err("ERR !limits expects key=value pairs (max_paths, max_len, "
            "max_iterations, truncate)\n");
        return true;
      }
      const std::string_view key = word.substr(0, eq);
      size_t value = 0;
      if (!ParseSizeT(word.substr(eq + 1), &value)) {
        err("ERR !limits value for '" + std::string(key) +
            "' must be a non-negative integer\n");
        return true;
      }
      if (key == "max_paths") {
        limits.max_paths = value;
      } else if (key == "max_len") {
        limits.max_path_length = value;
      } else if (key == "max_iterations") {
        limits.max_iterations = value;
      } else if (key == "truncate") {
        limits.truncate = value != 0;
      } else {
        err("ERR !limits unknown key '" + std::string(key) +
            "' (known: max_paths, max_len, max_iterations, truncate)\n");
        return true;
      }
    }
    engine_.SetEvalLimits(limits);
    ok(LimitsLine(limits));
    return true;
  }

  if (cmd == "!deadline") {
    if (rest == "off") {
      deadline_ms_ = 0;
      ok("OK deadline off\n");
      return true;
    }
    size_t n = 0;
    if (!ParseSizeT(rest, &n) || n == 0) {
      err("ERR !deadline takes a positive millisecond count or 'off'\n");
      return true;
    }
    deadline_ms_ = n;
    ok("OK deadline " + std::to_string(n) + "\n");
    return true;
  }

  if (cmd == "!timing") {
    if (rest == "on") {
      timings_ = true;
      ok("OK timing on\n");
    } else if (rest == "off") {
      timings_ = false;
      ok("OK timing off\n");
    } else {
      err("ERR !timing takes 'on' or 'off'\n");
    }
    return true;
  }

  if (cmd == "!record") {
    if (rest == "stop") {
      if (!recording_) {
        err("ERR no active recording (start one with !record <path>)\n");
        return true;
      }
      std::string line = StopRecording();
      if (StartsWith(line, "OK")) {
        ok(std::move(line));
      } else {
        err(std::move(line));
      }
      return true;
    }
    if (rest.empty()) {
      err("ERR !record takes a file path or 'stop'\n");
      return true;
    }
    if (recording_) {
      err("ERR already recording to '" + record_path_ +
          "' (finish with !record stop)\n");
      return true;
    }
    {
      // Fail fast on an unwritable path: discovering it only at !record
      // stop (or at disconnect, where the error has nobody to go to)
      // would silently discard the whole recording.
      std::ofstream probe{std::string(rest)};
      if (!probe) {
        err("ERR cannot write workload file '" + std::string(rest) + "'\n");
        return true;
      }
    }
    recording_ = true;
    record_path_ = std::string(rest);
    recorded_ = engine::Workload();
    recorded_.graph_spec = graph_spec_;
    // Non-default thread counts are part of the session context a replay
    // should reproduce.
    if (engine_.eval_threads() != 1) {
      recorded_.threads = engine_.eval_threads();
    }
    ok("OK recording to " + record_path_ + "\n");
    return true;
  }

  if (cmd == "!graph") {
    if (rest.empty()) {
      // The catalog maps an empty spec to the figure1 default (for
      // server startup); a bare client command is far more likely a typo
      // than a request to swap to figure1, so reject it.
      err("ERR !graph needs a spec (try figure1, social ..., csv <path>; "
          "see !help)\n");
      return true;
    }
    if (recording_) {
      // .gqlw has one `# graph` before the first query; a mid-recording
      // swap would silently misattribute every later query.
      err("ERR cannot swap graph while recording (finish with !record "
          "stop)\n");
      return true;
    }
    Result<CatalogEntryPtr> entry = manager_->catalog().Get(rest);
    if (!entry.ok()) {
      err("ERR " + OneLine(entry.status().ToString()) + "\n");
      return true;
    }
    catalog_entry_ = std::move(entry).value();
    graph_spec_ = catalog_entry_->spec;
    // Shared graph, shared cache: swap without clearing (plans are
    // graph-independent; the cache belongs to every session).
    engine_.SetGraph(catalog_entry_->graph);
    RefreshLiveGraph();  // a mutable entry may already be past load-time
    ok("OK graph " + std::to_string(engine_.graph().num_nodes()) +
       " nodes " + std::to_string(engine_.graph().num_edges()) + " edges\n");
    return true;
  }

  if (cmd == "!mutate") {
    if (rest.empty()) {
      err("ERR !mutate takes add-node|add-edge|rm-node|rm-edge "
          "arguments (see !help)\n");
      return true;
    }
    if (catalog_entry_->live == nullptr) {
      err("ERR graph '" + graph_spec_ +
          "' is read-only (start the server with --mutation-dir)\n");
      return true;
    }
    Result<mutation::DeltaRecord> rec =
        mutation::ParseMutationCommand(rest);
    if (!rec.ok()) {
      err("ERR " + OneLine(rec.status().ToString()) + "\n");
      return true;
    }
    mutation::DeltaRecord resolved;
    Status applied = catalog_entry_->live->Mutate(*rec, &resolved);
    if (!applied.ok()) {
      err("ERR " + OneLine(applied.ToString()) + "\n");
      return true;
    }
    RefreshLiveGraph();
    if (recording_) {
      // Mutations are part of the session history a replay must
      // reproduce: record the *resolved* form (auto names filled in) so
      // the replayed graph evolves identically.
      engine::WorkloadEntry entry;
      entry.name = "q" + std::to_string(recorded_.entries.size() + 1);
      entry.mutation = mutation::FormatMutation(resolved);
      recorded_.entries.push_back(std::move(entry));
    }
    ok("OK mutate " + mutation::FormatMutation(resolved) +
       " nodes=" + std::to_string(engine_.graph().num_nodes()) +
       " edges=" + std::to_string(engine_.graph().num_edges()) + "\n");
    return true;
  }

  if (cmd == "!version") {
    if (!rest.empty()) {
      err("ERR !version takes no arguments\n");
      return true;
    }
    // Mutable entries keep their id incrementally; a read-only graph
    // pays one serialization per ask (command path, never query path).
    const uint64_t version =
        catalog_entry_->live != nullptr
            ? catalog_entry_->live->VersionId()
            : storage::SnapshotWriter::VersionId(*catalog_entry_->graph);
    ok("OK version " + VersionHex(version) + "\n");
    return true;
  }

  if (cmd == "!stats") {
    *out += StatsLines();
    ok("OK stats\n");
    return true;
  }

  if (cmd == "!help") {
    *out +=
        "HELP one query per line; directives: !help !stats !cache clear "
        "!graph <spec> !mutate <op ...> !version !threads N "
        "!limits [k=v ...] !deadline <ms>|off "
        "!timing on|off !record <path>|stop !quit; mutation ops: "
        "add-node [name] [label=L] [k=v ...] / add-edge <src> <dst> "
        "[label=L] [name=N] [k=v ...] / rm-node <name> / rm-edge <name>\n";
    ok("OK help\n");
    return true;
  }

  if (cmd == "!cache" && rest == "clear") {
    engine_.cache().Clear();
    ok("OK cache cleared\n");
    return true;
  }

  if (cmd == "!quit") {
    ok("OK bye\n");
    return false;
  }

  err("ERR Invalid argument: unknown command '" + std::string(line) +
      "' (try !help)\n");
  return true;
}

void ServerSession::RefreshLiveGraph() {
  if (catalog_entry_->live == nullptr) return;
  std::shared_ptr<const PropertyGraph> cur = catalog_entry_->live->Current();
  if (cur.get() != engine_.shared_graph().get()) {
    engine_.SetGraph(std::move(cur));
  }
}

bool ServerSession::HandleLine(const std::string& line, std::string* out) {
  const std::string_view trimmed = StripWhitespace(line);
  if (trimmed.empty()) return true;
  ++result_.requests;
  // Pick up versions published by other sessions' mutations before
  // handling anything — each request line sees the latest version, and
  // keeps it pinned (shared_ptr) for exactly this line's duration.
  RefreshLiveGraph();
  if (trimmed[0] == '!') return HandleCommand(trimmed, out);

  // Every query runs under a fresh per-query CancelToken parented to the
  // manager's shutdown token: the session's `!deadline` budget arms it,
  // and a server-wide drain cancels through the parent. The token lives
  // on this frame: Execute is synchronous, and the engine's pointer to it
  // is cleared as soon as Execute returns.
  CancelToken cancel(&manager_->shutdown_token());
  if (deadline_ms_ > 0) cancel.ArmDeadline(deadline_ms_);
  engine_.SetCancelToken(&cancel);
  engine::ExecStats stats;
  Result<PathSet> r = engine_.Execute(trimmed, &stats);
  engine_.SetCancelToken(nullptr);
  if (recording_) RecordQuery(trimmed, r);
  if (r.ok()) {
    AppendQueryOk(r->size(), stats, timings_, out);
    ++result_.ok;
    return true;
  }
  // Classify cancellations by the pinned Status wording so the
  // deadline_trips / cancelled_queries counters track the ERR lines
  // clients actually saw.
  if (IsCancelledStatus(r.status())) {
    manager_->RecordQueryCancelled(IsDeadlineCancelledStatus(r.status()));
  }
  *out += "ERR " + OneLine(r.status().ToString()) + "\n";
  ++result_.errors;
  return true;
}

}  // namespace server
}  // namespace pathalg

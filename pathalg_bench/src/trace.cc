#include "trace.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>

#include "engine/plan_cache.h"
#include "engine/workload_file.h"
#include "gql/query.h"
#include "mutation/delta_log.h"
#include "mutation/live_graph.h"
#include "plan/evaluator.h"
#include "plan/optimizer.h"
#include "server/graph_catalog.h"
#include "server/session.h"
#include "stats.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "workloads.h"

namespace pathalg {
namespace bench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t request, int32_t parent,
             const char* name)
      : tracer_(tracer), id_(tracer->Begin(request, parent, name)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }
  /// Closes early; returns the duration in µs.
  double End() {
    if (!open_) return duration_us_;
    tracer_->End(id_);
    open_ = false;
    const Span& s = tracer_->spans()[static_cast<size_t>(id_)];
    duration_us_ = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    return duration_us_;
  }

 private:
  Tracer* tracer_;
  int32_t id_;
  bool open_ = true;
  double duration_us_ = 0.0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// `total=<n>us` of a `!timing on` response; -1 when absent.
double TotalUs(const std::string& response) {
  const size_t at = response.find(" total=");
  if (at == std::string::npos) return -1.0;
  return std::strtod(response.c_str() + at + 7, nullptr);
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// Journal header: magic, format version, reserved, base version.
constexpr uint64_t kJournalHeaderBytes = 8 + 4 + 4 + 8;

/// Pending records that trigger a compaction (the server's default).
constexpr size_t kCompactEvery = 64;

/// Waits out a detached compaction so its files are not removed under it.
void WaitForCompaction(const mutation::LiveGraph& live) {
  while (live.compaction_in_flight()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The write-side state of the decomposed replay: one journaled LiveGraph
/// with explicit compaction, so each layer call gets its own span.
struct WriteReplay {
  std::shared_ptr<const PropertyGraph> root;
  mutation::LiveGraphOptions options;
  std::shared_ptr<mutation::LiveGraph> live;
  bool dirty = false;
  uint64_t journal_bytes = 0;
  uint64_t journal_records = 0;
  std::vector<double> mutate_us, materialize_us, compact_ms;

  Status Open(std::shared_ptr<const PropertyGraph> base,
              const std::string& dir) {
    root = std::move(base);
    mkdir(dir.c_str(), 0755);
    options.journal_path = dir + "/live.journal";
    options.base_snapshot_path = dir + "/live.base.snap";
    PATHALG_ASSIGN_OR_RETURN(live, mutation::LiveGraph::Open(root, options));
    return Status::OK();
  }

  void CountJournal() {
    const uint64_t size = FileSize(options.journal_path);
    if (size > kJournalHeaderBytes) journal_bytes += size - kJournalHeaderBytes;
    journal_records += live->counters().pending;
  }

  Status Write(Tracer* tracer, uint32_t request, int32_t parent,
               const std::string& command) {
    PATHALG_ASSIGN_OR_RETURN(mutation::DeltaRecord rec,
                             mutation::ParseMutationCommand(command));
    ScopedSpan span(tracer, request, parent, "mutation.mutate");
    const Status applied = live->Mutate(rec);
    mutate_us.push_back(span.End());
    PATHALG_RETURN_NOT_OK(applied);
    dirty = true;
    if (live->counters().pending >= kCompactEvery) {
      CountJournal();
      ScopedSpan compact(tracer, request, parent, "mutation.compact");
      const Status compacted = live->Compact();
      compact_ms.push_back(compact.End() / 1e3);
      PATHALG_RETURN_NOT_OK(compacted);
    }
    return Status::OK();
  }

  std::shared_ptr<const PropertyGraph> Current(Tracer* tracer,
                                               uint32_t request,
                                               int32_t parent) {
    ScopedSpan span(tracer, request, parent, "mutation.current");
    std::shared_ptr<const PropertyGraph> g = live->Current();
    const double us = span.End();
    if (dirty) materialize_us.push_back(us);
    dirty = false;
    return g;
  }

  /// Drops the graph and reopens it from disk the way a restarted server
  /// does; the recovered version must be the one that was live.
  Status Recover(Tracer* tracer, uint32_t request, double* ms) {
    CountJournal();
    const uint64_t before = live->VersionId();
    live.reset();
    ScopedSpan span(tracer, request, -1, "mutation.recovery");
    std::shared_ptr<const PropertyGraph> base = root;
    uint64_t hint = 0;
    Result<PropertyGraph> on_disk =
        storage::SnapshotReader::Open(options.base_snapshot_path);
    if (on_disk.ok()) {
      Result<storage::SnapshotReader::Info> info =
          storage::SnapshotReader::Probe(options.base_snapshot_path);
      if (info.ok()) hint = info->version_id;
      base = std::make_shared<const PropertyGraph>(std::move(*on_disk));
    }
    PATHALG_ASSIGN_OR_RETURN(live,
                             mutation::LiveGraph::Open(base, options, hint));
    *ms = span.End() / 1e3;
    if (live->VersionId() != before) {
      return Status::Internal("journal recovery changed the version id");
    }
    return Status::OK();
  }
};

constexpr struct {
  PlanKind kind;
  const char* name;
} kShareKinds[] = {
    {PlanKind::kNodesScan, "nodes_scan"}, {PlanKind::kEdgesScan, "edges_scan"},
    {PlanKind::kSelect, "select"},        {PlanKind::kJoin, "join"},
    {PlanKind::kUnion, "union"},          {PlanKind::kRecursive, "recursive"},
    {PlanKind::kGroupBy, "group_by"},     {PlanKind::kOrderBy, "order_by"},
};

size_t KindIndex(PlanKind kind) { return static_cast<size_t>(kind); }

/// ServerSession::HandleLine per request: the session layer's own cost.
Status ReplaySessions(const ReplayInput& in, Tracer* tracer,
                      uint32_t* request, MetricMap* m, size_t* mismatches) {
  server::GraphCatalogOptions catalog_options;
  if (in.mutable_graphs) {
    catalog_options.mutation_dir = in.scratch_dir + "/session";
    mkdir(catalog_options.mutation_dir.c_str(), 0755);
  }
  server::GraphCatalog catalog(catalog_options);
  server::SessionManagerOptions options;
  options.default_graph_spec = in.conn_specs.front();
  server::SessionManager manager(&catalog, options);
  std::vector<std::unique_ptr<server::ServerSession>> sessions;
  for (const std::string& spec : in.conn_specs) {
    PATHALG_ASSIGN_OR_RETURN(std::unique_ptr<server::ServerSession> s,
                             manager.Open(spec));
    std::string out;
    s->HandleLine("!timing on", &out);
    sessions.push_back(std::move(s));
  }
  std::vector<double> self_us;
  for (const ReplayItem& item : in.items) {
    std::string out;
    ScopedSpan span(tracer, (*request)++, -1, "session.handle_line");
    sessions.at(item.conn)->HandleLine(item.line, &out);
    const double us = span.End();
    if (item.kind == RequestKind::kWrite) {
      if (out.rfind("OK mutate", 0) != 0) ++*mismatches;
      continue;
    }
    size_t count = 0;
    if (!ParseCount(out, &count) || count != item.served_count) ++*mismatches;
    const double total = TotalUs(out);
    if (total >= 0) self_us.push_back(us - total);
  }
  if (in.mutable_graphs) {
    for (const std::string& spec : in.conn_specs) {
      Result<server::CatalogEntryPtr> entry = catalog.Get(spec);
      if (entry.ok() && (*entry)->live != nullptr) {
        WaitForCompaction(*(*entry)->live);
      }
    }
  }
  (*m)["server.session_self_us.p50"] = {Quantile(self_us, 0.5), "us"};
  return Status::OK();
}

/// Cold GraphCatalog::Get of every graph the workload serves.
double CatalogLoadMs(const std::vector<std::string>& specs) {
  std::vector<std::string> distinct = specs;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<double> runs;
  for (int r = 0; r < 3; ++r) {
    server::GraphCatalog catalog;
    const int64_t start = NowNs();
    for (const std::string& spec : distinct) (void)catalog.Get(spec);
    runs.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Quantile(runs, 0.5);
}

}  // namespace

int32_t Tracer::Begin(uint32_t request, int32_t parent, const char* name) {
  spans_.push_back({request, parent, name, NowNs(), 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

std::vector<double> Tracer::DurationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfTimesUs() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      covered.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                           std::min(spans_[c].end_ns, s.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        union_ns += hi - from;
        reach = hi;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - union_ns) / 1e3;
  }
  return self;
}

Status Tracer::WriteJson(const std::string& path,
                         const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::vector<double> self = SelfTimesUs();
  out << "{\"workload\": \"" << workload
      << "\", \"time_unit\": \"us\", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"request\": " << s.request
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start\": " << static_cast<double>(s.start_ns - origin) / 1e3
        << ", \"end\": " << static_cast<double>(s.end_ns - origin) / 1e3
        << ", \"self\": " << self[i] << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

Status ReplayInProcess(const ReplayInput& in, Tracer* tracer, MetricMap* m,
                       size_t* mismatches) {
  uint32_t request = 0;
  PATHALG_RETURN_NOT_OK(ReplaySessions(in, tracer, &request, m, mismatches));
  (*m)["server.catalog_load_ms"] = {CatalogLoadMs(in.conn_specs), "ms"};

  // Decomposed path: the calls QueryEngine::Execute makes, in its order,
  // under the options a server session uses.
  std::map<std::string, std::shared_ptr<const PropertyGraph>> graphs;
  for (const std::string& spec : in.conn_specs) {
    if (graphs.count(spec) != 0) continue;
    PATHALG_ASSIGN_OR_RETURN(PropertyGraph g, engine::BuildWorkloadGraph(spec));
    graphs[spec] = std::make_shared<const PropertyGraph>(std::move(g));
  }
  const std::shared_ptr<const PropertyGraph> first = graphs[in.conn_specs[0]];
  WriteReplay writes;
  PATHALG_RETURN_NOT_OK(writes.Open(first, in.scratch_dir + "/decomposed"));

  engine::PlanCache cache(engine::EngineOptions().plan_cache_capacity);
  const QueryOptions query_options;
  EvalStats total;
  size_t queries = 0;
  size_t result_paths = 0;
  std::vector<double> rules;
  for (const ReplayItem& item : in.items) {
    const uint32_t req = request++;
    ScopedSpan root(tracer, req, -1, "request");
    if (item.kind == RequestKind::kWrite) {
      const std::string command = item.line.substr(item.line.find(' ') + 1);
      PATHALG_RETURN_NOT_OK(writes.Write(tracer, req, root.id(), command));
      continue;
    }
    std::shared_ptr<const PropertyGraph> g =
        in.mutable_graphs ? writes.Current(tracer, req, root.id())
                          : graphs[in.conn_specs.at(item.conn)];
    std::string normalized;
    {
      ScopedSpan s(tracer, req, root.id(), "engine.normalize");
      normalized = NormalizeQueryText(item.line);
    }
    engine::PreparedQueryPtr prepared;
    {
      ScopedSpan s(tracer, req, root.id(), "engine.plan_cache.get");
      prepared = cache.Get(normalized);
    }
    if (prepared == nullptr) {
      auto fresh = std::make_shared<engine::PreparedQuery>();
      {
        ScopedSpan s(tracer, req, root.id(), "gql.parse");
        Result<Query> parsed = Query::Parse(item.line);
        if (!parsed.ok()) {
          ++*mismatches;
          continue;
        }
        fresh->query = std::move(parsed).value();
      }
      {
        ScopedSpan s(tracer, req, root.id(), "plan.optimize");
        OptimizeResult optimized =
            Optimize(fresh->query.plan(), query_options.optimizer);
        fresh->effective_plan = std::move(optimized.plan);
        fresh->optimizer_rules = std::move(optimized.applied);
      }
      rules.push_back(static_cast<double>(fresh->optimizer_rules.size()));
      prepared = fresh;
      ScopedSpan s(tracer, req, root.id(), "engine.plan_cache.put");
      cache.Put(normalized, prepared);
    }
    EvalStats stats;
    EvalOptions eval_options = query_options.eval;
    eval_options.stats = &stats;
    Result<PathSet> paths = Status::Internal("not evaluated");
    {
      ScopedSpan s(tracer, req, root.id(), "plan.evaluate");
      paths = Evaluate(*g, prepared->effective_plan, eval_options);
    }
    total.Merge(stats);
    ++queries;
    if (!paths.ok() || paths->size() != item.served_count) {
      ++*mismatches;
      continue;
    }
    result_paths += paths->size();
  }

  // Read-only workloads: what writes would cost on this workload's data.
  for (const std::string& command : in.probe_writes) {
    const uint32_t req = request++;
    ScopedSpan root(tracer, req, -1, "probe.write");
    PATHALG_RETURN_NOT_OK(writes.Write(tracer, req, root.id(), command));
    writes.Current(tracer, req, root.id());
  }
  double recovery_ms = 0.0;
  PATHALG_RETURN_NOT_OK(writes.Recover(tracer, request++, &recovery_ms));

  // Storage: persist the current version and mmap it back.
  const std::shared_ptr<const PropertyGraph> current = writes.live->Current();
  const std::string snap = in.scratch_dir + "/storage.snap";
  std::vector<double> write_ms, open_ms;
  for (int r = 0; r < 3; ++r) {
    {
      ScopedSpan s(tracer, request, -1, "storage.snapshot_write");
      PATHALG_RETURN_NOT_OK(storage::SnapshotWriter::Write(*current, snap));
      write_ms.push_back(s.End() / 1e3);
    }
    ScopedSpan s(tracer, request++, -1, "storage.snapshot_open");
    Result<PropertyGraph> opened = storage::SnapshotReader::Open(snap);
    open_ms.push_back(s.End() / 1e3);
    if (!opened.ok() || opened->num_edges() != current->num_edges()) {
      ++*mismatches;
    }
  }

  const std::vector<double> eval_us = tracer->DurationsUs("plan.evaluate");
  (*m)["engine.normalize_us.p50"] = {
      Quantile(tracer->DurationsUs("engine.normalize"), 0.5), "us"};
  (*m)["gql.parse_us.p50"] = {
      Quantile(tracer->DurationsUs("gql.parse"), 0.5), "us"};
  (*m)["plan.optimize_us.p50"] = {
      Quantile(tracer->DurationsUs("plan.optimize"), 0.5), "us"};
  double rules_sum = 0.0;
  for (double r : rules) rules_sum += r;
  (*m)["plan.rules_fired.mean"] = {
      Ratio(rules_sum, static_cast<double>(rules.size())), "count"};
  (*m)["plan.eval_us.p50"] = {Quantile(eval_us, 0.5), "us"};
  (*m)["plan.eval_us.p99"] = {
      Quantile(eval_us, SupportedTailQuantile(eval_us.size())),
                              "us"};
  for (const auto& k : kShareKinds) {
    (*m)[std::string("plan.op_share.") + k.name] = {
        Ratio(static_cast<double>(total.op_us[KindIndex(k.kind)]),
              static_cast<double>(total.wall_us)),
        "fraction"};
  }
  const double n = static_cast<double>(queries);
  (*m)["plan.peak_intermediate_paths.max"] = {
      static_cast<double>(total.peak_intermediate_paths), "count"};
  (*m)["plan.label_scan_hit_ratio"] = {
      Ratio(static_cast<double>(total.label_scan_hits),
            static_cast<double>(total.op_count[KindIndex(PlanKind::kSelect)])),
      "fraction"};
  (*m)["algebra.fused_ratio"] = {
      Ratio(static_cast<double>(total.fused_closure_hits),
            static_cast<double>(
                total.op_count[KindIndex(PlanKind::kRecursive)])),
      "fraction"};
  (*m)["algebra.frontier_states_expanded.per_query"] = {
      Ratio(static_cast<double>(total.frontier_states_expanded), n), "count"};
  (*m)["algebra.useful_ratio"] = {
      Ratio(static_cast<double>(result_paths),
            static_cast<double>(total.frontier_states_expanded)),
      "fraction"};
  (*m)["algebra.paths_reconstructed.per_query"] = {
      Ratio(static_cast<double>(total.frontier_paths_reconstructed), n),
      "count"};
  (*m)["path.result_paths.mean"] = {
      Ratio(static_cast<double>(result_paths), n), "count"};
  (*m)["mutation.mutate_us.p50"] = {Quantile(writes.mutate_us, 0.5), "us"};
  (*m)["mutation.mutate_us.p99"] = {
      Quantile(writes.mutate_us,
               SupportedTailQuantile(writes.mutate_us.size())),
      "us"};
  (*m)["mutation.materialize_us.p50"] = {
      Quantile(writes.materialize_us, 0.5), "us"};
  (*m)["mutation.compact_ms.p50"] = {Quantile(writes.compact_ms, 0.5), "ms"};
  (*m)["mutation.journal_bytes_per_record"] = {
      Ratio(static_cast<double>(writes.journal_bytes),
            static_cast<double>(writes.journal_records)),
      "B/record"};
  (*m)["mutation.recovery_ms"] = {recovery_ms, "ms"};
  (*m)["storage.snapshot_write_ms"] = {Quantile(write_ms, 0.5), "ms"};
  (*m)["storage.snapshot_open_ms"] = {Quantile(open_ms, 0.5), "ms"};
  return Status::OK();
}

}  // namespace bench
}  // namespace pathalg

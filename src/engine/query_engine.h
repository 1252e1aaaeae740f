#ifndef PATHALG_ENGINE_QUERY_ENGINE_H_
#define PATHALG_ENGINE_QUERY_ENGINE_H_

/// \file query_engine.h
/// The session layer: the first component that treats the algebra as a
/// *served system* rather than a library. A QueryEngine holds a
/// PropertyGraph plus the session's QueryOptions, and runs query text
/// end-to-end — normalize → plan-cache lookup → (parse → optimize on a
/// miss) → evaluate — collecting per-stage wall timings for every call.
/// The replay driver (engine/replay.h), the server's line protocol
/// (server/session.h) and examples/query_shell all sit on this class, so
/// end-to-end latency is measured the same way everywhere.
///
/// Sharing model: the graph is held by shared_ptr<const PropertyGraph> —
/// immutable once built, so any number of sessions may share one instance
/// (the server's GraphCatalog loads each named graph exactly once). The
/// plan cache is shared_ptr-owned too: by default each engine gets a
/// private cache, but EngineOptions::shared_cache lets every session of a
/// server share one process-wide (thread-safe) cache.
///
/// A QueryEngine itself is still one session: its per-session state (the
/// stats counters, the options) is not synchronized — one QueryEngine per
/// connection/thread, sharing graph and cache underneath.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "engine/plan_cache.h"
#include "gql/query.h"
#include "graph/property_graph.h"

namespace pathalg {
namespace engine {

struct EngineOptions {
  /// Evaluation + optimizer knobs applied to every query in the session.
  QueryOptions query;
  /// Plan-cache capacity in entries; 0 disables plan caching. Ignored
  /// when `shared_cache` is set.
  size_t plan_cache_capacity = 128;
  /// When set, the engine uses this (thread-safe) cache instead of
  /// constructing a private one — the server hands every session the same
  /// instance. Sharing is sound across sessions and graphs because the
  /// cache key covers everything preparation depends on: plans are a
  /// function of the normalized text and the OptimizerOptions, which a
  /// server keeps identical across its sessions, and never of the graph
  /// or the eval-time knobs (threads, limits) that sessions vary.
  std::shared_ptr<PlanCache> shared_cache;
};

/// Per-call instrumentation, filled by Execute/Prepare when requested.
struct ExecStats {
  /// Cache key actually used (NormalizeQueryText of the input).
  std::string normalized;
  bool cache_hit = false;
  /// Zero on a cache hit (the prepared entry carries its one-time costs).
  uint64_t parse_us = 0;
  uint64_t optimize_us = 0;
  uint64_t eval_us = 0;
  /// Whole Execute call, including normalization and cache probing.
  uint64_t total_us = 0;
  size_t result_paths = 0;
  /// Per-operator breakdown of the evaluation (plan/evaluator.h).
  EvalStats eval;
};

/// Session-lifetime aggregates.
struct SessionStats {
  uint64_t queries = 0;  // Execute calls
  uint64_t errors = 0;   // Execute calls that returned a non-OK status
  uint64_t parse_us = 0;
  uint64_t optimize_us = 0;
  uint64_t eval_us = 0;
  uint64_t total_us = 0;
  uint64_t paths_produced = 0;
};

class QueryEngine {
 public:
  explicit QueryEngine(PropertyGraph graph, EngineOptions options = {})
      : QueryEngine(std::make_shared<const PropertyGraph>(std::move(graph)),
                    std::move(options)) {}

  /// Shares an already-loaded graph (the server's GraphCatalog path).
  explicit QueryEngine(std::shared_ptr<const PropertyGraph> graph,
                       EngineOptions options = {})
      : graph_(std::move(graph)),
        options_(std::move(options)),
        cache_(options_.shared_cache != nullptr
                   ? options_.shared_cache
                   : std::make_shared<PlanCache>(
                         options_.plan_cache_capacity)) {}

  const PropertyGraph& graph() const { return *graph_; }
  const std::shared_ptr<const PropertyGraph>& shared_graph() const {
    return graph_;
  }
  const EngineOptions& options() const { return options_; }

  /// Swaps in a shared graph *without* clearing the plan cache — prepared
  /// plans are graph-independent (see EngineOptions::shared_cache), and
  /// the cache may belong to every other session of a server. When the
  /// session *does* prepare graph-dependently (optimizer stats are set),
  /// the cache key carries a per-graph token, so a swap — a `!graph`
  /// command or a live-mutation version publish — can never serve a plan
  /// memoized against the previous graph's statistics. Same-pointer
  /// swaps are no-ops (the token, and thus cached keys, stay valid).
  void SetGraph(std::shared_ptr<const PropertyGraph> graph) {
    if (graph.get() == graph_.get()) return;
    graph_ = std::move(graph);
    graph_token_ = NextGraphToken();
  }

  /// Sets the evaluation thread count (EvalOptions::threads; 0 = hardware
  /// concurrency) for subsequent Execute/ExecutePrepared calls. Plans are
  /// thread-count independent — parallel output is byte-identical to
  /// serial — so cached plans stay valid and the cache is kept.
  void SetEvalThreads(size_t threads) {
    options_.query.eval.threads = threads;
  }
  size_t eval_threads() const { return options_.query.eval.threads; }

  /// Sets the per-query evaluation budgets (admission control: the server
  /// exposes this per session via the `!limits` protocol command). Like
  /// threads, limits apply at eval time only, so cached plans stay valid.
  void SetEvalLimits(const EvalLimits& limits) {
    options_.query.eval.limits = limits;
  }
  const EvalLimits& eval_limits() const {
    return options_.query.eval.limits;
  }

  /// Installs (or clears, with nullptr) the cooperative-cancellation
  /// token polled by subsequent Execute/ExecutePrepared calls
  /// (EvalLimits::cancel; trip semantics in algebra/eval_budget.h). Not
  /// owned — the caller arms a deadline per query and must keep the
  /// token alive for the duration of the call.
  void SetCancelToken(const CancelToken* cancel) {
    options_.query.eval.limits.cancel = cancel;
  }

  /// Normalize → cache lookup → parse+optimize on miss (inserting into the
  /// cache). Returns the shared prepared entry; `stats`, when non-null,
  /// receives normalization/caching/parse/optimize numbers (eval fields
  /// stay zero).
  Result<PreparedQueryPtr> Prepare(std::string_view text,
                                   ExecStats* stats = nullptr);

  /// Prepare + evaluate. On error the stats still describe the attempt
  /// (e.g. parse_us for a parse error, eval_us for an eval error).
  Result<PathSet> Execute(std::string_view text, ExecStats* stats = nullptr);

  /// Evaluates an already-prepared query (shared, possibly evicted entry).
  /// Fills only the evaluation fields of `stats` (eval_us, result_paths,
  /// eval), leaving the prepare-phase fields untouched so Execute can
  /// layer the two. Does not update session_stats().
  Result<PathSet> ExecutePrepared(const PreparedQuery& prepared,
                                  ExecStats* stats = nullptr);

  PlanCache& cache() { return *cache_; }
  const PlanCache& cache() const { return *cache_; }
  const SessionStats& session_stats() const { return session_; }

 private:
  /// Process-unique token minted per distinct graph instance an engine
  /// has pointed at (monotonic atomic counter — tokens are never reused,
  /// so a key built against an old graph can never collide with a new
  /// one's).
  static uint64_t NextGraphToken();

  /// The plan-cache key for `normalized` query text: the text itself for
  /// graph-independent preparation (the shared-cache contract), prefixed
  /// with the graph token when optimizer statistics make prepared plans
  /// graph-dependent.
  std::string CacheKey(const std::string& normalized) const;

  std::shared_ptr<const PropertyGraph> graph_;
  EngineOptions options_;
  std::shared_ptr<PlanCache> cache_;
  SessionStats session_;
  uint64_t graph_token_ = NextGraphToken();
};

}  // namespace engine
}  // namespace pathalg

#endif  // PATHALG_ENGINE_QUERY_ENGINE_H_

#include "engine/query_engine.h"

#include <atomic>

#include "common/timing.h"

namespace pathalg {
namespace engine {

uint64_t QueryEngine::NextGraphToken() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::string QueryEngine::CacheKey(const std::string& normalized) const {
  // Graph-independent preparation (no optimizer stats) keys on the text
  // alone — the invariant that lets a server share one cache across
  // sessions sitting on different graphs. With stats set, plans embed
  // graph-derived decisions, so the graph token joins the key; the
  // '\x1f' separator is a control byte no parseable (hence cacheable)
  // query contains, keeping token keys disjoint from text keys.
  if (options_.query.optimizer.stats == nullptr) return normalized;
  return "g" + std::to_string(graph_token_) + "\x1f" + normalized;
}

Result<PreparedQueryPtr> QueryEngine::Prepare(std::string_view text,
                                              ExecStats* stats) {
  ExecStats local;
  ExecStats& s = stats != nullptr ? *stats : local;
  s = ExecStats();
  s.normalized = NormalizeQueryText(text);
  const std::string key = CacheKey(s.normalized);

  if (PreparedQueryPtr hit = cache_->Get(key)) {
    s.cache_hit = true;
    return hit;
  }

  auto prepared = std::make_shared<PreparedQuery>();
  // Parse the *original* text (not the normalized cache key) so parse
  // errors report byte positions in what the caller actually sent.
  const SteadyClock::time_point parse_start = SteadyClock::now();
  Result<Query> parsed = Query::Parse(text);
  s.parse_us = MicrosSince(parse_start);
  if (!parsed.ok()) return parsed.status();
  prepared->query = std::move(parsed).value();

  if (options_.query.optimize) {
    const SteadyClock::time_point opt_start = SteadyClock::now();
    OptimizeResult optimized =
        Optimize(prepared->query.plan(), options_.query.optimizer);
    s.optimize_us = MicrosSince(opt_start);
    prepared->effective_plan = std::move(optimized.plan);
    prepared->optimizer_rules = std::move(optimized.applied);
  } else {
    prepared->effective_plan = prepared->query.plan();
  }
  prepared->parse_us = s.parse_us;
  prepared->optimize_us = s.optimize_us;

  PreparedQueryPtr shared = std::move(prepared);
  cache_->Put(key, shared);
  return shared;
}

Result<PathSet> QueryEngine::ExecutePrepared(const PreparedQuery& prepared,
                                             ExecStats* stats) {
  ExecStats local;
  ExecStats& s = stats != nullptr ? *stats : local;

  EvalOptions eval_options = options_.query.eval;
  eval_options.stats = &s.eval;
  const SteadyClock::time_point eval_start = SteadyClock::now();
  Result<PathSet> result =
      Evaluate(*graph_, prepared.effective_plan, eval_options);
  if (result.ok() && options_.query.whole_path_restrictor) {
    *result = ApplyWholePathRestrictor(*result,
                                       prepared.query.parsed().restrictor);
  }
  s.eval_us = MicrosSince(eval_start);
  if (result.ok()) s.result_paths = result->size();
  return result;
}

Result<PathSet> QueryEngine::Execute(std::string_view text,
                                     ExecStats* stats) {
  ExecStats local;
  ExecStats& s = stats != nullptr ? *stats : local;
  const SteadyClock::time_point start = SteadyClock::now();
  ++session_.queries;

  Result<PreparedQueryPtr> prepared = Prepare(text, &s);
  if (!prepared.ok()) {
    s.total_us = MicrosSince(start);
    ++session_.errors;
    session_.parse_us += s.parse_us;
    session_.optimize_us += s.optimize_us;
    session_.total_us += s.total_us;
    return prepared.status();
  }

  Result<PathSet> result = ExecutePrepared(**prepared, &s);
  s.total_us = MicrosSince(start);

  if (!result.ok()) ++session_.errors;
  session_.parse_us += s.parse_us;
  session_.optimize_us += s.optimize_us;
  session_.eval_us += s.eval_us;
  session_.total_us += s.total_us;
  session_.paths_produced += s.result_paths;
  return result;
}

}  // namespace engine
}  // namespace pathalg

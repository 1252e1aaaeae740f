#ifndef PATHALG_ENGINE_PLAN_CACHE_H_
#define PATHALG_ENGINE_PLAN_CACHE_H_

/// \file plan_cache.h
/// LRU cache of prepared queries, keyed on normalized query text
/// (NormalizeQueryText in gql/query.h). A hit skips parse + optimize —
/// for the paper's small plans those two dominate end-to-end latency of
/// cheap queries, and for a served workload the same query text arrives
/// over and over. Entries are immutable and shared_ptr-owned, so a cached
/// plan stays valid even if it is evicted while a caller still holds it.
///
/// Thread-safe: every method takes an internal mutex, so one PlanCache
/// can back every session of the concurrent server (src/server) —
/// sessions on different graphs included, because prepared plans are
/// graph-independent (Optimize sees only the plan and OptimizerOptions;
/// see SessionManagerOptions::engine in server/session.h, which nulls the
/// optimizer's plan/cost.h GraphStats). The mutex is held only for the
/// map/list manipulation, never while parsing or optimizing — concurrent
/// misses of one query may both prepare it, and the second Put simply
/// replaces the first (both plans are valid).

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "gql/query.h"

namespace pathalg {
namespace engine {

/// One prepared query: the parse result plus the plan the session will
/// actually evaluate (optimized under the session's OptimizerOptions).
struct PreparedQuery {
  Query query;
  /// query.plan() after Optimize; == query.plan() when optimization is
  /// disabled in the session options.
  PlanPtr effective_plan;
  /// Optimizer rules applied, in order (EXPLAIN-style provenance).
  std::vector<std::string> optimizer_rules;
  /// One-time preparation cost, for amortization accounting.
  uint64_t parse_us = 0;
  uint64_t optimize_us = 0;
};

using PreparedQueryPtr = std::shared_ptr<const PreparedQuery>;

/// Monotonic counters; exposed via PlanCache::stats().
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
};

/// Thread-safe LRU map: normalized query text -> PreparedQueryPtr.
/// Capacity 0 disables caching (every Get is a miss, Put is a no-op).
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the entry for `key` (promoting it to most-recently-used) or
  /// nullptr; counts a hit or a miss.
  PreparedQueryPtr Get(const std::string& key);

  /// Inserts or replaces the entry for `key` as most-recently-used,
  /// evicting the least-recently-used entry when over capacity.
  void Put(const std::string& key, PreparedQueryPtr prepared);

  /// Drops all entries (the protocol's `!cache clear`); stats counters
  /// are preserved.
  void Clear();

  size_t size() const {
    MutexLock lock(mu_);
    return index_.size();
  }
  size_t capacity() const { return capacity_; }
  /// Coherent snapshot of the counters (by value: the counters mutate
  /// under the mutex on every Get/Put).
  PlanCacheStats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  // Most-recently-used at the front.
  using LruList = std::list<std::pair<std::string, PreparedQueryPtr>>;
  const size_t capacity_;
  mutable Mutex mu_;
  LruList lru_ PA_GUARDED_BY(mu_);
  std::unordered_map<std::string, LruList::iterator> index_
      PA_GUARDED_BY(mu_);
  PlanCacheStats stats_ PA_GUARDED_BY(mu_);
};

}  // namespace engine
}  // namespace pathalg

#endif  // PATHALG_ENGINE_PLAN_CACHE_H_

#include "algebra/recursive.h"

#include <queue>
#include <unordered_map>
#include <vector>

#include "algebra/eval_budget.h"
#include "algebra/frontier_closure.h"
#include "common/hash.h"
#include "path/path_index.h"

namespace pathalg {

const char* PathSemanticsToString(PathSemantics s) {
  switch (s) {
    case PathSemantics::kWalk:
      return "WALK";
    case PathSemantics::kTrail:
      return "TRAIL";
    case PathSemantics::kAcyclic:
      return "ACYCLIC";
    case PathSemantics::kSimple:
      return "SIMPLE";
    case PathSemantics::kShortest:
      return "SHORTEST";
  }
  return "?";
}

bool SatisfiesSemantics(PathRef p, PathSemantics s) {
  switch (s) {
    case PathSemantics::kWalk:
    case PathSemantics::kShortest:
      return true;
    case PathSemantics::kTrail:
      return p.IsTrail();
    case PathSemantics::kAcyclic:
      return p.IsAcyclic();
    case PathSemantics::kSimple:
      return p.IsSimple();
  }
  return false;
}

namespace {

struct PairHash {
  size_t operator()(const std::pair<NodeId, NodeId>& p) const {
    size_t h = std::hash<uint64_t>{}(p.first);
    HashCombine(h, std::hash<uint64_t>{}(p.second));
    return h;
  }
};

using BestMap =
    std::unordered_map<std::pair<NodeId, NodeId>, size_t, PairHash>;

// ---------------------------------------------------------------------------
// Naive engine: Definition 4.1 verbatim.
//   ϕ0(S) = S;  ϕi(S) = (ϕ{i-1}(S) ⋈ ϕ0(S)) ∪ ϕ{i-1}(S)  until fixpoint.
// The restrictor filter is applied to every candidate (§4: "filtering the
// paths generated during the recursion").
// ---------------------------------------------------------------------------
Result<PathSet> RecursiveNaive(const PathSet& base, PathSemantics semantics,
                               const EvalLimits& limits) {
  const bool shortest = semantics == PathSemantics::kShortest;
  BestMap best;
  bool dropped = false;

  PathSet acc;  // ϕ_{i}(S), accumulated.
  for (PathRef p : base) {
    if (p.empty()) continue;
    // Semantics before length: only *admissible* overlong candidates set
    // `dropped` (the eval_budget.h predicate).
    if (!SatisfiesSemantics(p, semantics)) continue;
    if (p.Len() > limits.max_path_length) {
      dropped = true;
      continue;
    }
    if (acc.Contains(p)) continue;  // duplicates never trip the budget
    if (acc.size() >= limits.max_paths) {
      if (limits.truncate) return acc;
      return BudgetExhausted("max_paths", semantics);
    }
    if (shortest) {
      auto key = std::make_pair(p.First(), p.Last());
      auto it = best.find(key);
      if (it == best.end() || p.Len() < it->second) best[key] = p.Len();
    }
    acc.Insert(p);
  }

  // ϕ0 is the *filtered* base — Definition 4.1 instantiated per semantics.
  // Copy it out: `acc` grows during the fixpoint, and its arena may move
  // under any view into it.
  const PathList base_paths = acc.paths();
  const PathFirstIndex index(base_paths);

  // The budget trips iff the fixpoint is not *verified* within
  // max_iterations rounds — a nonempty ϕ0 needs round 1 to verify even an
  // immediate fixpoint, while ϕ0 = ∅ is a fixpoint with zero rounds. This
  // matches the frontier engine's nonempty-frontier loop exactly
  // (eval_budget.h).
  bool grew = !acc.empty();
  size_t rounds = 0;
  while (grew) {
    if (CancelRequested(limits.cancel)) return EvalCancelled(*limits.cancel);
    if (rounds == limits.max_iterations) {
      if (limits.truncate) {
        return shortest ? KeepShortestPerEndpointPair(acc) : acc;
      }
      return BudgetExhausted("max_iterations", semantics);
    }
    ++rounds;
    // Join the full accumulated set with ϕ0 (this is what makes the naive
    // engine quadratic: older paths are re-joined every round).
    std::vector<Path> generated;
    uint32_t cancel_countdown = kCancelCheckStride;
    for (PathRef p1 : acc) {
      // A single quadratic round can dwarf the round boundary poll above;
      // the stride poll bounds cancellation latency inside it.
      if (limits.cancel != nullptr && --cancel_countdown == 0) {
        cancel_countdown = kCancelCheckStride;
        if (limits.cancel->Cancelled()) return EvalCancelled(*limits.cancel);
      }
      for (uint32_t j : index.ForFirst(p1.Last())) {
        Path q = Path::ConcatUnchecked(p1, base_paths[j]);
        if (!SatisfiesSemantics(q, semantics)) continue;
        if (q.Len() > limits.max_path_length) {
          dropped = true;
          continue;
        }
        if (shortest) {
          auto key = std::make_pair(q.First(), q.Last());
          auto bit = best.find(key);
          if (bit != best.end() && q.Len() > bit->second) continue;
          if (bit == best.end() || q.Len() < bit->second) {
            best[key] = q.Len();
          }
        }
        generated.push_back(std::move(q));
      }
    }
    const size_t before = acc.size();
    for (Path& q : generated) {
      if (acc.Contains(q)) continue;  // duplicates never trip the budget
      if (acc.size() >= limits.max_paths) {
        if (limits.truncate) return acc;
        return BudgetExhausted("max_paths", semantics);
      }
      acc.Insert(std::move(q));
    }
    grew = acc.size() > before;
  }
  // Fixpoint verified: |ϕi| == |ϕ{i-1}|.
  if (dropped && !limits.truncate) {
    return BudgetExhausted("max_path_length", semantics);
  }
  return shortest ? KeepShortestPerEndpointPair(acc) : acc;
}

// ---------------------------------------------------------------------------
// Optimized engine, shortest: best-first expansion in global length order.
// Only per-pair-optimal paths are expanded; this is sound because a prefix
// of a shortest composition can always be replaced by a shortest
// composition between the same endpoints.
//
// The heap is drained in *length layers*: expanding a path only ever
// pushes strictly longer paths, so once the first length-L path pops, the
// set of length-L entries is frozen. The pop phase of a layer (best-map
// updates, dedup, budgets, result insertion) is sequential and ordered by
// the heap's (length, canonical) comparator; the expansion phase then
// extends the whole accepted layer against a frozen best map — a pure
// read-only fan-out, chunked over the layer. Candidate pushes merge in
// chunk order, and since distinct paths pop in strict comparator order
// regardless of push order, results, partial answers and Status are
// byte-identical at any thread count. (Versus the pre-layered
// interleaved loop, the frozen best map prunes slightly more duplicate
// pushes — same answers, fewer wasted pops.)
//
// Seeds: only seed-first base paths enter the heap. Extensions keep the
// first node and `best` is keyed by (first, last), so the seeded pops are
// exactly the unseeded run's seed-first pops, in the same order.
// ---------------------------------------------------------------------------
Result<PathSet> RecursiveShortestLayered(const PathSet& base,
                                         const PhiSpec& spec,
                                         const EvalLimits& limits,
                                         const ParallelOptions& parallel,
                                         ParallelStats* parallel_stats) {
  auto cmp = [](const Path& a, const Path& b) {
    // Min-heap by (length, canonical order) for determinism.
    if (a.Len() != b.Len()) return a.Len() > b.Len();
    return b < a;
  };
  std::priority_queue<Path, std::vector<Path>, decltype(cmp)> heap(cmp);
  const PathFirstIndex index(base.paths());

  for (PathRef p : base) {
    if (p.empty()) continue;
    if (p.Len() > limits.max_path_length) continue;
    if (!spec.Admits(p.First())) continue;
    heap.push(Path(p));
  }

  BestMap best;
  PathSet out;
  PathSet expanded;  // dedup of heap pops (a path can be pushed twice)
  size_t pops = 0;
  std::vector<Path> layer;  // this length class's newly-optimal paths
  while (!heap.empty()) {
    if (CancelRequested(limits.cancel)) return EvalCancelled(*limits.cancel);
    const size_t layer_len = heap.top().Len();
    layer.clear();
    while (!heap.empty() && heap.top().Len() == layer_len) {
      if (++pops > limits.max_iterations * 64) {
        if (limits.truncate) return out;
        return BudgetExhausted("max_iterations", PathSemantics::kShortest);
      }
      Path p = heap.top();
      heap.pop();
      auto key = std::make_pair(p.First(), p.Last());
      auto it = best.find(key);
      if (it != best.end() && p.Len() > it->second) continue;  // not optimal
      if (it == best.end()) best[key] = p.Len();
      if (!expanded.Insert(p)) continue;  // already handled this exact path
      if (out.size() >= limits.max_paths) {
        if (limits.truncate) return out;
        return BudgetExhausted("max_paths", PathSemantics::kShortest);
      }
      out.Insert(p);
      layer.push_back(std::move(p));
    }
    // Expand every accepted layer path by every base path. `best` is
    // frozen here (all entries keyed this layer hold layer_len, which
    // already prunes any strictly-longer extension), so the chunk bodies
    // only read shared state.
    const size_t n = layer.size();
    const ChunkLayout layout = ThreadPool::PlanFor(n, parallel);
    std::vector<std::vector<Path>> pushes(layout.num_chunks);
    ThreadPool::Shared().ParallelFor(
        n, parallel, parallel_stats,
        [&](size_t chunk, size_t begin, size_t end) {
          std::vector<Path>& mine = pushes[chunk];
          for (size_t i = begin; i < end; ++i) {
            const Path& p = layer[i];
            for (uint32_t j : index.ForFirst(p.Last())) {
              const PathRef b = base[j];
              if (b.Len() == 0) continue;  // identity ext., no progress
              Path q = Path::ConcatUnchecked(p, b);
              if (q.Len() > limits.max_path_length) continue;
              auto qkey = std::make_pair(q.First(), q.Last());
              auto qit = best.find(qkey);
              if (qit != best.end() && q.Len() > qit->second) continue;
              mine.push_back(std::move(q));
            }
          }
        });
    for (std::vector<Path>& chunk : pushes) {
      for (Path& q : chunk) heap.push(std::move(q));
    }
  }
  return out;
}

}  // namespace

Result<PathSet> Recursive(const PathSet& base, PhiSpec spec,
                          const EvalLimits& limits, PhiEngine engine,
                          const ParallelOptions& parallel,
                          ParallelStats* parallel_stats) {
  if (engine == PhiEngine::kNaive) {
    // The naive engine is the literal Definition 4.1 reference the
    // parallel paths are differentially tested against; it stays serial
    // by design, and honours seeds by filtering its unseeded answer.
    if (parallel_stats != nullptr && parallel.EffectiveThreads() > 1) {
      ++parallel_stats->serial_fallbacks;
    }
    Result<PathSet> all = RecursiveNaive(base, spec.semantics, limits);
    if (!all.ok() || spec.seeds == nullptr) return all;
    PathSet seeded;
    for (size_t i = 0; i < all->size(); ++i) {
      if (spec.Admits((*all)[i].First())) {
        seeded.InsertHashed((*all)[i], all->hash_of(i));
      }
    }
    return seeded;
  }
  if (spec.semantics == PathSemantics::kShortest) {
    return RecursiveShortestLayered(base, spec, limits, parallel,
                                    parallel_stats);
  }
  return FrontierClosureOverBase(base, spec, limits, parallel,
                                 parallel_stats);
}

PathSet RestrictPaths(const PathSet& s, PathSemantics semantics) {
  if (semantics == PathSemantics::kShortest) {
    return KeepShortestPerEndpointPair(s);
  }
  PathSet out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (SatisfiesSemantics(s[i], semantics)) {
      out.InsertHashed(s[i], s.hash_of(i));
    }
  }
  return out;
}

PathSet KeepShortestPerEndpointPair(const PathSet& s) {
  BestMap best;
  for (PathRef p : s) {
    auto key = std::make_pair(p.First(), p.Last());
    auto it = best.find(key);
    if (it == best.end() || p.Len() < it->second) best[key] = p.Len();
  }
  PathSet out;
  for (size_t i = 0; i < s.size(); ++i) {
    const PathRef p = s[i];
    // Every endpoint pair of s has an entry from the first loop.
    if (best.find(std::make_pair(p.First(), p.Last()))->second == p.Len()) {
      out.InsertHashed(p, s.hash_of(i));
    }
  }
  return out;
}

}  // namespace pathalg

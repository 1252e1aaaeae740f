#ifndef PATHALG_ALGEBRA_RECURSIVE_H_
#define PATHALG_ALGEBRA_RECURSIVE_H_

/// \file recursive.h
/// The Recursive Path Algebra (§4): ϕ computes a recursive self-join over a
/// set of paths until a fixpoint (Definition 4.1), under one of five GQL
/// path semantics (restrictors, Table 2):
///
///   ϕWalk     — all paths, no restriction (diverges on cyclic inputs);
///   ϕTrail    — no repeated edges;
///   ϕAcyclic  — no repeated nodes;
///   ϕSimple   — no repeated nodes except possibly first == last;
///   ϕShortest — per (first, last) pair, only minimum-length paths.
///
/// Two engines are provided: `kNaive` follows Definition 4.1 literally
/// (each round joins the full accumulated set with the base set), and
/// `kOptimized` uses semi-naive frontier expansion (FrontierClosureOverBase
/// in algebra/frontier_closure.h) or length-layered best-first search
/// (shortest). The engines are checked equal by differential tests;
/// bench/phi_ablation measures the gap.
///
/// The optimized engines optionally fan each round's expansion out over
/// the chunked work-stealing pool (common/thread_pool.h). Parallel output
/// is byte-identical to serial at any thread count — candidate generation
/// (extend + filter) is chunked, while dedup, budget checks and result
/// insertion run on the calling thread in chunk order, which is exactly
/// the serial enumeration order. kNaive stays intentionally serial: it is
/// the reference the parallel engines are differentially tested against.
///
/// Seeds: a PhiSpec may carry an ascending list of seed nodes (the source
/// condition of plan/plan.h's ClosureSpec, resolved by the evaluator).
/// The answer is then σ_{First ∈ seeds}(ϕ_semantics(base)). The optimized
/// engines start only from seed-first paths; since every later round keeps
/// a path's first node, their output is byte for byte the unseeded output
/// with the other first nodes dropped, whenever the unseeded run succeeds.
/// kNaive runs Definition 4.1 unseeded and filters at the end, so it stays
/// the reference for the rewrite that fills the seeds in.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "path/path_set.h"

namespace pathalg {

/// GQL restrictor semantics (Table 2 plus SHORTEST, §4).
enum class PathSemantics { kWalk, kTrail, kAcyclic, kSimple, kShortest };

const char* PathSemanticsToString(PathSemantics s);

/// What one ϕ evaluation computes: ϕ_semantics, restricted to the paths
/// whose first node is in `seeds` (ascending, distinct; not owned) when
/// `seeds` is set. Converts implicitly from PathSemantics (no seeds:
/// every node starts paths).
struct PhiSpec {
  PhiSpec(PathSemantics s, const std::vector<NodeId>* seed_nodes = nullptr)
      : semantics(s), seeds(seed_nodes) {}

  /// Number of start nodes on a graph of `num_nodes` nodes.
  size_t NumStarts(size_t num_nodes) const {
    return seeds == nullptr ? num_nodes : seeds->size();
  }
  /// The i-th start node, ascending in i.
  NodeId Start(size_t i) const {
    return seeds == nullptr ? static_cast<NodeId>(i) : (*seeds)[i];
  }
  /// True if a path starting at `n` may be in the answer.
  bool Admits(NodeId n) const {
    return seeds == nullptr ||
           std::binary_search(seeds->begin(), seeds->end(), n);
  }

  PathSemantics semantics;
  const std::vector<NodeId>* seeds;
};

/// True if `p` is admissible under `s`. Shortest is a set-level property
/// and always returns true here; it is enforced by the ϕ engines.
bool SatisfiesSemantics(PathRef p, PathSemantics s);

/// Budgets for a ϕ evaluation. ϕWalk over a cyclic input has an infinite
/// answer (§4); the budgets make evaluation total. When a budget truncates
/// a genuinely larger answer the engine either reports ResourceExhausted
/// (truncate == false, the default) or returns the partial answer
/// (truncate == true — used for "all walks up to length L" workloads).
struct EvalLimits {
  /// Paths longer than this are never produced.
  size_t max_path_length = 256;
  /// Hard cap on the number of result paths. Together with
  /// max_path_length this bounds ϕ's memory footprint; raise both for
  /// genuinely huge answers.
  size_t max_paths = 1'000'000;
  /// Hard cap on fixpoint rounds.
  size_t max_iterations = 100'000;
  /// Budget policy: error out (false) or return the partial answer (true).
  bool truncate = false;
  /// Optional cooperative-cancellation token (deadline or external),
  /// polled at every deterministic control point. Trip semantics —
  /// including why truncate never applies to a cancellation — are pinned
  /// in algebra/eval_budget.h. Not owned; must outlive the evaluation.
  const CancelToken* cancel = nullptr;
};

enum class PhiEngine { kNaive, kOptimized };

/// ϕ_semantics(base): Definition 4.1 with the restrictor filter applied to
/// every generated path (including the base paths themselves — ϕTrail of a
/// non-trail base path excludes it, matching Table 2's "returns paths that
/// do not have repeated edges"), keeping only seed-first paths when
/// `spec` has seeds.
Result<PathSet> Recursive(const PathSet& base, PhiSpec spec,
                          const EvalLimits& limits = {},
                          PhiEngine engine = PhiEngine::kOptimized,
                          const ParallelOptions& parallel = {},
                          ParallelStats* parallel_stats = nullptr);

/// Keeps, for every (First, Last) pair in `s`, exactly the minimum-length
/// paths. Exposed for the optimizer and for tests.
PathSet KeepShortestPerEndpointPair(const PathSet& s);

/// The whole-path restrictor filter ρ (an extension operator): drops paths
/// violating trail/acyclic/simple, keeps per-pair minima for shortest, and
/// is the identity for walk. This is GQL's reading of a restrictor applied
/// to an existing set of paths, and the outer restrictor of §2.3 sequenced
/// path queries.
PathSet RestrictPaths(const PathSet& s, PathSemantics semantics);

}  // namespace pathalg

#endif  // PATHALG_ALGEBRA_RECURSIVE_H_

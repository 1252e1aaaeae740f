#ifndef PATHALG_ALGEBRA_FRONTIER_CLOSURE_H_
#define PATHALG_ALGEBRA_FRONTIER_CLOSURE_H_

/// \file frontier_closure.h
/// The NFA-fused frontier engine for ϕ: evaluates the recursive closure
/// ϕ_semantics over the set of paths matching a closure-free regex
/// `inner` directly against the graph's label CSR, without materializing
/// that base set or any intermediate join. This is the classical
/// product-automaton construction (PathFinder: "Evaluating Regular Path
/// Queries in GQL and SQL/PGQ") fused into the semi-naive frontier:
/// (node, NFA-state) pairs drive expansion and pruning, the restrictor
/// semantics are enforced *during* expansion (a walk that repeats an
/// edge under TRAIL dies at that edge, not after a full candidate path
/// was built and filtered), and paths are reconstructed — their ids
/// written to a chunk's flat candidate buffer — only for accepting
/// survivors.
///
/// One semi-naive round driver serves every non-shortest ϕ, fed by one
/// of two segment sources: the NFA walker above, or a materialized base
/// set (FrontierClosureOverBase). Round 0 seeds the 1-segment paths and
/// round r extends every path round r−1 found by one more segment, so
/// the max_iterations trip predicate is the naive engine's
/// (algebra/eval_budget.h). With seeds (PhiSpec, recursive.h), round 0
/// starts only at the seeds, and every later round keeps each path's
/// first node, so the output is the unseeded output's seed-first paths
/// in the same order. kShortest instead runs a product BFS over
/// inner+'s automaton (determinized up to the NFA's size) per source node
/// (every node, or the seeds) and reconstructs all per-pair minimal paths
/// backwards along distance-decreasing product edges; it never consults
/// max_iterations.
///
/// Parallel execution keeps the repo's determinism contract: the
/// non-shortest rounds chunk the frontier (each chunk walks its paths'
/// (node, state) buckets and buffers candidates), the shortest mode
/// chunks the per-source product BFS by source node, and both merge
/// chunk buffers in chunk index order on the calling thread — results,
/// partial answers and Status are byte-identical at any thread count.
/// No locks are introduced; workers only write chunk-private buffers.
///
/// Equivalence to ϕ_sem(Eval(compile(inner))) per semantics: for
/// trail/acyclic/simple a sub-walk of an admissible composition is
/// admissible (prefixes of simple paths are acyclic), so in-flight
/// pruning never kills a prefix of a surviving candidate; for shortest,
/// every segment of a globally minimal composition is segment-minimal
/// (replacement argument), so the product BFS's minima are the closure's
/// minima; walk is unrestricted. Checked against the base source, naive
/// and the automaton baseline by tests/frontier_differential_test.cc.

#include "algebra/recursive.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/property_graph.h"
#include "path/path_set.h"
#include "regex/ast.h"

namespace pathalg {

/// Counters for one FrontierClosure call; the evaluator folds them into
/// EvalStats (frontier_states_expanded / frontier_paths_reconstructed).
struct FrontierClosureStats {
  /// Product steps taken: one per (node, NFA-state) pair pushed during
  /// segment walks (non-shortest) or relaxed/backtracked (shortest).
  size_t states_expanded = 0;
  /// Candidate paths reconstructed for accepting survivors (before dedup
  /// against the accumulated result).
  size_t paths_reconstructed = 0;
};

/// True if `inner` is a closure-free regex (labels, concatenations,
/// unions) — the family the frontier engine fuses. Nested closures and
/// `?` fall back to the materializing engines.
bool FrontierEligible(const RegexPtr& inner);

/// ϕ_semantics over the base set {p : λ(p) ∈ L(inner)}, evaluated
/// NFA-fused. Precondition: FrontierEligible(inner); returns
/// InvalidArgument otherwise. Result is set-equal to
/// Recursive(Eval(CompileRegex(inner)), spec, limits) with an identical
/// budget-trip predicate (algebra/eval_budget.h). With seeds, round 0
/// (or the shortest BFS) starts only at the seed nodes.
Result<PathSet> FrontierClosure(const PropertyGraph& g,
                                const RegexPtr& inner, PhiSpec spec,
                                const EvalLimits& limits = {},
                                const ParallelOptions& parallel = {},
                                ParallelStats* parallel_stats = nullptr,
                                FrontierClosureStats* stats = nullptr);

/// Semi-naive ϕ_semantics(base), the kOptimized Recursive for every
/// semantics but kShortest (InvalidArgument): round 0 admits the base
/// paths in base order (with seeds, only the seed-first ones), round r
/// appends one base path to each path round r−1 found.
Result<PathSet> FrontierClosureOverBase(
    const PathSet& base, PhiSpec spec,
    const EvalLimits& limits = {}, const ParallelOptions& parallel = {},
    ParallelStats* parallel_stats = nullptr);

}  // namespace pathalg

#endif  // PATHALG_ALGEBRA_FRONTIER_CLOSURE_H_

#ifndef PATHALG_PLAN_EVALUATOR_H_
#define PATHALG_PLAN_EVALUATOR_H_

/// \file evaluator.h
/// The reference interpreter for logical plans: "to build a reference
/// implementation, one only needs to specify an algorithm for each operator
/// of the algebra" (§7.2). Each plan node maps 1:1 onto the algebra
/// implementations in src/algebra.

#include <array>
#include <cstdint>

#include "algebra/recursive.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/property_graph.h"
#include "path/path_set.h"
#include "plan/plan.h"

namespace pathalg {

/// Per-evaluation instrumentation, filled in by Evaluate when
/// EvalOptions::stats is set. All timings are wall-clock microseconds;
/// per-operator entries are indexed by `static_cast<size_t>(PlanKind)` and
/// exclude time spent in the operator's children, so they sum (up to clock
/// granularity) to `wall_us`. The engine layer (src/engine) aggregates
/// these into per-query replay reports.
///
/// Race-freedom under parallel operators: pool workers never touch an
/// EvalStats — they accumulate into per-participant ParallelStats slots
/// that the pool sums after its join barrier, and the evaluator folds the
/// result in on the calling thread. Merge is associative (see below), so
/// per-worker/per-query stats can be combined in any grouping.
struct EvalStats {
  uint64_t wall_us = 0;
  /// Plan nodes visited (= operator applications; a node evaluated once).
  size_t nodes_evaluated = 0;
  /// Cardinality of the largest intermediate path set produced by any
  /// operator — the evaluation's memory high-water proxy. Merges as a
  /// *maximum* (a high-water mark over the merged runs), unlike every
  /// other field, which merges by summation.
  size_t peak_intermediate_paths = 0;
  std::array<uint64_t, kNumPlanKinds> op_us{};
  std::array<size_t, kNumPlanKinds> op_count{};
  /// σ_c(Edges(G)) subtrees answered from the CSR adjacency instead of a
  /// full edge scan + filter, by either access path: the seek (c has a
  /// top-level label(edge(1)) = "L" or first-node conjunct) or the probe
  /// join, where ⋈(X, σ_{label(edge(1))=L}(Edges(G))) extends X through
  /// the label CSR and never evaluates its right side. Both still book the
  /// collapsed scan and σ into op_count, so these hits are a subset of
  /// op_count[kSelect].
  size_t label_scan_hits = 0;
  /// Work-stealing pool chunks executed by σ/⋈/ϕ parallel regions.
  size_t chunks_executed = 0;
  /// Chunks executed by a pool participant other than their assigned one.
  size_t steal_count = 0;
  /// NFA-fused ϕ (algebra/frontier_closure.h) instrumentation: ϕ nodes
  /// answered by the frontier engine (the ϕ's child subtree is never
  /// evaluated on a hit), product (node, NFA-state) steps taken, and Path
  /// objects reconstructed for accepting survivors. All sum on Merge.
  size_t fused_closure_hits = 0;
  size_t frontier_states_expanded = 0;
  size_t frontier_paths_reconstructed = 0;
  /// Per-operator count of parallel-eligible regions (one operator
  /// input, one ϕ segment wave, or one shortest length layer) that ran
  /// serially despite threads > 1 — input under the min_chunk threshold,
  /// or (one count per ϕ call) the intentionally-serial
  /// PhiEngine::kNaive. One big ϕ can contribute several counts: its
  /// small tail layers fall back while its big layers parallelize.
  std::array<size_t, kNumPlanKinds> op_serial_fallback{};

  /// Accumulates `other` into this (for multi-query and per-worker
  /// aggregation). Associative and commutative: counters and timings sum,
  /// peak_intermediate_paths takes the max — so merging {a,b,c} yields the
  /// same result under any grouping or order.
  void Merge(const EvalStats& other);
};

/// Evaluation knobs threaded through every ϕ in the plan.
struct EvalOptions {
  EvalLimits limits;
  /// kOptimized fuses a ϕ over a compiled closure-free regex into the
  /// frontier engine (algebra/frontier_closure.h) without materializing
  /// its base; kNaive runs Definition 4.1 on every ϕ, never fusing.
  PhiEngine engine = PhiEngine::kOptimized;
  /// Worker threads for σ/⋈/ϕ (common/thread_pool.h): 1 = serial (the
  /// default; never touches the pool), 0 = hardware concurrency. Parallel
  /// evaluation is byte-identical to serial — same paths, same order, same
  /// Status on budget exhaustion — at any thread count.
  size_t threads = 1;
  /// Inputs smaller than 2*min_chunk stay serial; every chunk except
  /// possibly the last holds at least min_chunk items.
  size_t min_chunk = 128;
  /// Optional stats collector (not owned; may be null). When set, Evaluate
  /// resets and fills it — including on error, so callers can attribute the
  /// cost of failed evaluations.
  EvalStats* stats = nullptr;
};

/// Evaluates a path-typed plan (root must not be γ/τ). Validates first.
Result<PathSet> Evaluate(const PropertyGraph& g, const PlanPtr& plan,
                         const EvalOptions& options = {});

/// Evaluates a space-typed plan (root must be γ or τ). Validates first.
Result<SolutionSpace> EvaluateToSpace(const PropertyGraph& g,
                                      const PlanPtr& plan,
                                      const EvalOptions& options = {});

}  // namespace pathalg

#endif  // PATHALG_PLAN_EVALUATOR_H_

#include "plan/evaluator.h"

#include <algorithm>
#include <variant>
#include <vector>

#include "algebra/core_ops.h"
#include "algebra/eval_budget.h"
#include "algebra/frontier_closure.h"
#include "common/timing.h"
#include "path/path_ops.h"
#include "regex/ast.h"

namespace pathalg {

void EvalStats::Merge(const EvalStats& other) {
  // Sum every counter/timing; max the high-water mark. Both operations
  // are associative and commutative, so per-worker and per-query partial
  // stats combine to the same totals under any merge grouping
  // (tested by EvalStatsMergeTest.MergeIsAssociative).
  wall_us += other.wall_us;
  nodes_evaluated += other.nodes_evaluated;
  peak_intermediate_paths =
      std::max(peak_intermediate_paths, other.peak_intermediate_paths);
  for (size_t i = 0; i < kNumPlanKinds; ++i) {
    op_us[i] += other.op_us[i];
    op_count[i] += other.op_count[i];
    op_serial_fallback[i] += other.op_serial_fallback[i];
  }
  label_scan_hits += other.label_scan_hits;
  chunks_executed += other.chunks_executed;
  steal_count += other.steal_count;
  fused_closure_hits += other.fused_closure_hits;
  frontier_states_expanded += other.frontier_states_expanded;
  frontier_paths_reconstructed += other.frontier_paths_reconstructed;
}

namespace {

using EvalValue = std::variant<PathSet, SolutionSpace>;

/// Records one operator application into `stats` (null = no-op): own wall
/// time (children excluded — the caller passes the instant its own work
/// began) plus the intermediate-cardinality high-water mark.
void RecordOp(EvalStats* stats, const PlanNode& node,
              SteadyClock::time_point own_start, const EvalValue& out) {
  if (stats == nullptr) return;
  const size_t k = static_cast<size_t>(node.kind());
  stats->op_us[k] += MicrosSince(own_start);
  stats->op_count[k] += 1;
  stats->nodes_evaluated += 1;
  if (const PathSet* ps = std::get_if<PathSet>(&out)) {
    stats->peak_intermediate_paths =
        std::max(stats->peak_intermediate_paths, ps->size());
  }
}

Result<EvalValue> ApplyOp(const PropertyGraph& g, const PlanNode& node,
                          std::vector<EvalValue>& inputs,
                          const EvalOptions& options);

/// True for the atom label(edge(1)) = "L".
bool IsEdgeLabelAtom(const Condition& c) {
  return c.kind() == Condition::Kind::kSimple &&
         c.access() == AccessKind::kEdgeLabel && c.position() == 1 &&
         c.op() == CompareOp::kEq && c.constant().is_string();
}

/// True for σ_c(Edges(G)), whatever c is.
bool IsSelectOverEdgesScan(const PlanNode& node) {
  return node.kind() == PlanKind::kSelect && node.children().size() == 1 &&
         node.child()->kind() == PlanKind::kEdgesScan &&
         node.condition() != nullptr;
}

/// Matches σ_{label(edge(1))="L"}(Edges(G)) — the shape every compiled
/// regex label atom takes. Returns the matched condition, or nullptr.
const Condition* MatchEdgeLabelScan(const PlanNode& node) {
  if (!IsSelectOverEdgesScan(node)) return nullptr;
  const Condition* c = node.condition().get();
  return IsEdgeLabelAtom(*c) ? c : nullptr;
}

/// The index-seek access path for σ_c(Edges(G)): the top-level conjuncts
/// of c that bind an edge's label (label(edge(1)) = "L") or its source
/// node (RefersOnlyToFirstNode), which together narrow the candidates to
/// an adjacency slice instead of every edge.
struct EdgeSeek {
  const Condition* label = nullptr;
  std::vector<const Condition*> first_node;
};

void CollectConjuncts(const Condition& c, EdgeSeek* seek) {
  if (c.kind() == Condition::Kind::kAnd) {
    CollectConjuncts(*c.left(), seek);
    CollectConjuncts(*c.right(), seek);
  } else if (seek->label == nullptr && IsEdgeLabelAtom(c)) {
    seek->label = &c;
  } else if (RefersOnlyToFirstNode(c)) {
    seek->first_node.push_back(&c);
  }
}

/// Returns true and fills `seek` when `node` is a σ over the edge scan
/// whose condition has at least one seekable conjunct.
bool MatchEdgeSeek(const PlanNode& node, EdgeSeek* seek) {
  if (!IsSelectOverEdgesScan(node)) return false;
  CollectConjuncts(*node.condition(), seek);
  return seek->label != nullptr || !seek->first_node.empty();
}

/// The first-node test: true when node `n` passes every condition in
/// `first_node`, each of which RefersOnlyToFirstNode. Such a condition
/// reads the same object on the zero-length path (n) as on any path that
/// starts at n, so σ's seek and ϕ's seeds both decide per node here — on
/// a view of `n` itself, without building a path.
bool PassesAtFirstNode(const PropertyGraph& g, NodeId n,
                       const std::vector<const Condition*>& first_node) {
  const PathRef at(&n, 1);
  return std::all_of(first_node.begin(), first_node.end(),
                     [&](const Condition* c) { return c->Evaluate(g, at); });
}

/// The engine-side form of a ϕ node's ClosureSpec: with a source, the
/// nodes passing it, ascending, are written to `*seeds` (which must
/// outlive the returned spec).
PhiSpec ResolveClosure(const PropertyGraph& g, const ClosureSpec& closure,
                       std::vector<NodeId>* seeds) {
  if (closure.source == nullptr) return closure.semantics;
  const std::vector<const Condition*> source = {closure.source.get()};
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (PassesAtFirstNode(g, n, source)) seeds->push_back(n);
  }
  return {closure.semantics, seeds};
}

/// Answers σ_c(Edges(G)) through `seek`. Candidates come from the CSR —
/// per passing source node when a first-node conjunct exists, else
/// the whole label slice — and are emitted in ascending edge id, the
/// EdgesOf order σ would preserve. Every candidate is then checked against
/// the *full* c, so OR/NOT and missing-data semantics are exactly the
/// generic σ's; the seek only skips edges some top-level conjunct rejects.
PathSet SeekEdges(const PropertyGraph& g, const Condition& c,
                  const EdgeSeek& seek) {
  const LabelId label =
      seek.label == nullptr ? kNoLabel
                            : g.FindLabel(seek.label->constant().AsString());
  std::vector<EdgeId> candidates;
  if (seek.first_node.empty()) {
    const NeighborRange slice = g.EdgesWithLabel(label);  // edge-id order
    candidates.assign(slice.begin(), slice.end());
  } else {
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      const NeighborRange run = seek.label == nullptr
                                    ? g.OutEdges(n)
                                    : g.OutEdgesWithLabel(n, label);
      if (run.empty() || !PassesAtFirstNode(g, n, seek.first_node)) continue;
      candidates.insert(candidates.end(), run.begin(), run.end());
    }
    // OutEdges runs are (label, id)-sorted; each edge has one source, so
    // the candidates are distinct.
    std::sort(candidates.begin(), candidates.end());
  }
  PathSet out;
  for (EdgeId e : candidates) {
    const EdgePathIds p(g, e);
    if (c.Evaluate(g, p)) out.Insert(p);
  }
  return out;
}

/// Books a σ-over-scan subtree answered without running the scan: both
/// collapsed operators count in op_count, so it matches the generic path.
/// The σ itself is booked by the caller (RecordOp) when `book_select` is
/// false, i.e. when it produced the output.
void BookCollapsedScan(EvalStats* stats, bool book_select) {
  if (stats == nullptr) return;
  stats->op_count[static_cast<size_t>(PlanKind::kEdgesScan)] += 1;
  stats->nodes_evaluated += 1;
  stats->label_scan_hits += 1;
  if (book_select) {
    stats->op_count[static_cast<size_t>(PlanKind::kSelect)] += 1;
    stats->nodes_evaluated += 1;
  }
}

/// Matches ⋈(X, σ_{label(edge(1))="L"}(Edges(G))), answered by probing
/// X's end nodes in the label CSR (JoinOutEdges) — the right side is never
/// evaluated. Returns the label atom, or nullptr.
const Condition* MatchProbeJoin(const PlanNode& node) {
  if (node.kind() != PlanKind::kJoin || node.children().size() != 2) {
    return nullptr;
  }
  return MatchEdgeLabelScan(*node.children()[1]);
}

/// Inverts the compile.cc regex→plan mapping for the closure-free shapes
/// the frontier engine fuses: σ_{label(edge(1))=L}(Edges) → :L,
/// Join → concatenation, Union → alternation. Returns nullptr when the
/// subtree is not the compiled form of a closure-free regex (e.g. it
/// contains a nested ϕ, a NodesScan from `*`/`?` lowering, or a
/// hand-built filter) — the caller then evaluates the subtree normally.
RegexPtr ReconstructRegex(const PlanNode& node) {
  if (const Condition* c = MatchEdgeLabelScan(node)) {
    return RegexNode::Label(c->constant().AsString());
  }
  if (node.children().size() != 2) return nullptr;
  if (node.kind() != PlanKind::kJoin && node.kind() != PlanKind::kUnion) {
    return nullptr;
  }
  RegexPtr l = ReconstructRegex(*node.children()[0]);
  if (l == nullptr) return nullptr;
  RegexPtr r = ReconstructRegex(*node.children()[1]);
  if (r == nullptr) return nullptr;
  return node.kind() == PlanKind::kJoin ? RegexNode::Concat(std::move(l),
                                                            std::move(r))
                                        : RegexNode::Union(std::move(l),
                                                           std::move(r));
}

// GCC 12 flags the Result<variant<...>> moves in Eval/ApplyOp returns —
// and, at -O2 (RelWithDebInfo, the TSan build), the inlined
// std::get<SolutionSpace> move in EvaluateToSpace — as
// maybe-uninitialized (a known std::variant false positive); every path
// that reaches those returns has fully constructed the value. The pop is
// at the end of the file so both regions stay covered.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
Result<EvalValue> Eval(const PropertyGraph& g, const PlanNode& node,
                       const EvalOptions& options) {
  // Per-plan-node cancellation point: covers σ/⋈ and the scans, whose
  // operator kernels return plain PathSets and so cannot trip mid-op;
  // the ϕ engines additionally poll at their own round/segment/layer
  // boundaries via options.limits.cancel.
  if (CancelRequested(options.limits.cancel)) {
    return EvalCancelled(*options.limits.cancel);
  }
  if (EdgeSeek seek; MatchEdgeSeek(node, &seek)) {
    const SteadyClock::time_point own_start = SteadyClock::now();
    EvalValue out(SeekEdges(g, *node.condition(), seek));
    BookCollapsedScan(options.stats, /*book_select=*/false);
    RecordOp(options.stats, node, own_start, out);  // the scan's time too
    return out;
  }
  // NFA-fused ϕ: when the closure's child subtree is the compiled form of
  // a closure-free regex, skip evaluating it (the base set is never
  // materialized) and run the product-automaton frontier engine instead,
  // from the source's seeds when the ϕ has one.
  // Unlike the label-scan fast path the collapsed children are *not*
  // booked into op_count — no operator ran for them.
  if (node.kind() == PlanKind::kRecursive &&
      options.engine == PhiEngine::kOptimized) {
    if (RegexPtr inner = ReconstructRegex(*node.children()[0]);
        inner != nullptr && FrontierEligible(inner)) {
      const SteadyClock::time_point own_start = SteadyClock::now();
      const ParallelOptions par{options.threads, options.min_chunk};
      ParallelStats pstats;
      FrontierClosureStats fstats;
      std::vector<NodeId> seeds;
      Result<PathSet> r = FrontierClosure(
          g, inner, ResolveClosure(g, node.closure(), &seeds),
          options.limits, par, &pstats, &fstats);
      if (options.stats != nullptr) {  // a failed ϕ still reports its work
        options.stats->chunks_executed += pstats.chunks_executed;
        options.stats->steal_count += pstats.steal_count;
        options.stats->op_serial_fallback[static_cast<size_t>(
            PlanKind::kRecursive)] += pstats.serial_fallbacks;
        options.stats->fused_closure_hits += 1;
        options.stats->frontier_states_expanded += fstats.states_expanded;
        options.stats->frontier_paths_reconstructed +=
            fstats.paths_reconstructed;
      }
      if (!r.ok()) {
        // Book the node even on a budget error, mirroring the non-fused
        // path where children evaluate before ϕ fails — callers attribute
        // the cost of failed evaluations (see EvalOptions::stats).
        if (options.stats != nullptr) {
          const size_t k = static_cast<size_t>(node.kind());
          options.stats->op_us[k] += MicrosSince(own_start);
          options.stats->op_count[k] += 1;
          options.stats->nodes_evaluated += 1;
        }
        return r.status();
      }
      EvalValue out(std::move(r).value());
      RecordOp(options.stats, node, own_start, out);
      return out;
    }
  }
  // Evaluate children first (all operators are strict) — except the label
  // atom a probe join reads straight from the label CSR (ApplyOp), which
  // stays an empty placeholder.
  const bool probe_join = MatchProbeJoin(node) != nullptr;
  std::vector<EvalValue> inputs;
  inputs.reserve(node.children().size());
  for (size_t i = 0; i < node.children().size(); ++i) {
    if (probe_join && i == 1) {
      BookCollapsedScan(options.stats, /*book_select=*/true);
      inputs.emplace_back(PathSet());
      continue;
    }
    PATHALG_ASSIGN_OR_RETURN(EvalValue v,
                             Eval(g, *node.children()[i], options));
    inputs.push_back(std::move(v));
  }
  const SteadyClock::time_point own_start = SteadyClock::now();
  PATHALG_ASSIGN_OR_RETURN(EvalValue out, ApplyOp(g, node, inputs, options));
  RecordOp(options.stats, node, own_start, out);
  return EvalValue(std::move(out));
}

/// Applies one operator to its already-evaluated inputs.
Result<EvalValue> ApplyOp(const PropertyGraph& g, const PlanNode& node,
                          std::vector<EvalValue>& inputs,
                          const EvalOptions& options) {
  auto paths = [&](size_t i) -> PathSet& {
    return std::get<PathSet>(inputs[i]);
  };
  const ParallelOptions par{options.threads, options.min_chunk};
  // Workers accumulate into pool-local slots; this folds the merged
  // region counters into the (calling-thread-only) EvalStats.
  ParallelStats pstats;
  auto fold_parallel = [&]() {
    if (options.stats == nullptr) return;
    options.stats->chunks_executed += pstats.chunks_executed;
    options.stats->steal_count += pstats.steal_count;
    options.stats->op_serial_fallback[static_cast<size_t>(node.kind())] +=
        pstats.serial_fallbacks;
  };
  switch (node.kind()) {
    case PlanKind::kNodesScan:
      return EvalValue(NodesOf(g));
    case PlanKind::kEdgesScan:
      return EvalValue(EdgesOf(g));
    case PlanKind::kSelect: {
      EvalValue out(Select(g, paths(0), *node.condition(), par, &pstats));
      fold_parallel();
      // σ/⋈ run to completion (their kernels return plain PathSets), so
      // a trip during the operator surfaces here, at the chunk-merge
      // boundary, before the result can flow further up the plan.
      if (CancelRequested(options.limits.cancel)) {
        return EvalCancelled(*options.limits.cancel);
      }
      return out;
    }
    case PlanKind::kJoin: {
      const Condition* probe = MatchProbeJoin(node);
      EvalValue out(
          probe == nullptr
              ? Join(paths(0), paths(1), par, &pstats)
              : JoinOutEdges(g, paths(0),
                             g.FindLabel(probe->constant().AsString()), par,
                             &pstats));
      fold_parallel();
      if (CancelRequested(options.limits.cancel)) {
        return EvalCancelled(*options.limits.cancel);
      }
      return out;
    }
    case PlanKind::kUnion:
      return EvalValue(Union(std::move(paths(0)), std::move(paths(1))));
    case PlanKind::kIntersect:
      return EvalValue(Intersect(paths(0), paths(1)));
    case PlanKind::kDifference:
      return EvalValue(Difference(paths(0), paths(1)));
    case PlanKind::kRecursive: {
      std::vector<NodeId> seeds;
      Result<PathSet> r = Recursive(
          paths(0), ResolveClosure(g, node.closure(), &seeds),
          options.limits, options.engine, par, &pstats);
      fold_parallel();  // a failed ϕ still reports its parallel work
      PATHALG_RETURN_NOT_OK(r.status());
      return EvalValue(std::move(r).value());
    }
    case PlanKind::kRestrict:
      return EvalValue(RestrictPaths(paths(0), node.semantics()));
    case PlanKind::kGroupBy:
      return EvalValue(GroupBy(std::move(paths(0)), node.group_key()));
    case PlanKind::kOrderBy:
      return EvalValue(OrderBy(std::move(std::get<SolutionSpace>(inputs[0])),
                               node.order_key()));
    case PlanKind::kProject: {
      PATHALG_ASSIGN_OR_RETURN(
          PathSet r, Project(std::move(std::get<SolutionSpace>(inputs[0])),
                             node.projection()));
      return EvalValue(std::move(r));
    }
  }
  return Status::Internal("unknown plan kind");
}

/// Shared prologue/epilogue of the two public entry points: resets the
/// stats collector, runs `body`, and stamps total wall time (errors
/// included, so failed evaluations still report their cost).
template <typename T, typename Body>
Result<T> Timed(const EvalOptions& options, Body body) {
  if (options.stats != nullptr) *options.stats = EvalStats();
  const SteadyClock::time_point start = SteadyClock::now();
  Result<T> r = body();
  if (options.stats != nullptr) options.stats->wall_us = MicrosSince(start);
  return r;
}

}  // namespace

Result<PathSet> Evaluate(const PropertyGraph& g, const PlanPtr& plan,
                         const EvalOptions& options) {
  return Timed<PathSet>(options, [&]() -> Result<PathSet> {
    if (plan == nullptr) return Status::InvalidArgument("null plan");
    PATHALG_RETURN_NOT_OK(plan->Validate());
    if (plan->ProducesSpace()) {
      return Status::InvalidArgument(
          "plan root produces a solution space; use EvaluateToSpace or add "
          "a Project");
    }
    PATHALG_ASSIGN_OR_RETURN(EvalValue v, Eval(g, *plan, options));
    return std::get<PathSet>(std::move(v));
  });
}

Result<SolutionSpace> EvaluateToSpace(const PropertyGraph& g,
                                      const PlanPtr& plan,
                                      const EvalOptions& options) {
  return Timed<SolutionSpace>(options, [&]() -> Result<SolutionSpace> {
    if (plan == nullptr) return Status::InvalidArgument("null plan");
    PATHALG_RETURN_NOT_OK(plan->Validate());
    if (!plan->ProducesSpace()) {
      return Status::InvalidArgument(
          "plan root produces a set of paths; use Evaluate");
    }
    PATHALG_ASSIGN_OR_RETURN(EvalValue v, Eval(g, *plan, options));
    return std::get<SolutionSpace>(std::move(v));
  });
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace pathalg

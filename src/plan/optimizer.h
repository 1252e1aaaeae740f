#ifndef PATHALG_PLAN_OPTIMIZER_H_
#define PATHALG_PLAN_OPTIMIZER_H_

/// \file optimizer.h
/// Logical plan rewrites (§7.3): "a well-known advantage of having a query
/// algebra is that it facilitates query optimization."
///
/// Result-preserving rules (on by default):
///   1. select-merge      σc1(σc2(x))            → σ(c1 AND c2)(x)
///   2. select-pushdown   σ through ∪ (both sides), through ⋈ (first.*
///      conditions go left, last.* go right, fixed-position conditions go
///      left when the left input has a statically fixed length that covers
///      every accessed position — Figure 6's rewrite)
///   3. select-into-closure  σc(ϕs(x)) → σc'(ϕ[s; src](x)): the top-level
///      conjuncts of c that read only the first node become ϕ's source
///      condition (ClosureSpec, plan.h), so the engines start only at the
///      nodes it admits; last.*, len(), OR-mixed and multi-position
///      conjuncts stay in σc'. Gated by select_pushdown.
///   4. orderby-simplify  τθ(γψ(x)) drops ordering components that are
///      no-ops for ψ's organization (§6's τPG-after-γ∅ example); an empty
///      τ is removed
///   5. union-dedup       x ∪ x → x (structural equality)
///   6. project-all       π(*,*,*) over γ/τ chains → the underlying
///      path-typed subtree (projection of everything is the identity)
///   7. any-shortest      π(*,*,1)(τA(γST(ϕWalk(x)))) →
///                        π(*,*,1)(τA(γST(ϕShortest(x)))) — only the
///      per-pair shortest survive the projection, so ϕ need not enumerate
///      non-shortest walks; this turns a diverging plan into a terminating
///      one while preserving the answer exactly (ties resolve canonically).
///      It, all-shortest and global-shortest keep ϕ's source.
///   8. recursive-idempotent  ϕs(ϕs(x)) → ϕs(x), keeping the outer source;
///      it does not fire when the inner ϕ has a source.
///
/// Semantics-changing rescue (opt-in, §7.3's example):
///   9. walk-to-shortest  π(#p,#g,*)(τG(γL(ϕWalk(x)))) →
///                        π(#p,#g,*)(τG(γL(ϕShortest(x)))). The paper notes
///      this equivalence "just works well when the target graph does not
///      contain cycles" — it trades completeness of the walk enumeration
///      for termination, so it is gated behind
///      OptimizerOptions::enable_walk_rescue.

#include <string>
#include <vector>

#include "plan/cost.h"
#include "plan/plan.h"

namespace pathalg {

struct OptimizerOptions {
  bool select_merge = true;
  bool select_pushdown = true;
  bool orderby_simplify = true;
  bool union_dedup = true;
  bool project_all = true;
  bool any_shortest = true;
  /// ρs(ϕs(x)) → ϕs(x) when the producer's semantics already implies the
  /// filter (acyclic ⊆ simple ⊆ trail ⊆ walk); ρWalk and ρ over length-≤1
  /// inputs are identities.
  bool restrict_elim = true;
  /// x ⋈ Nodes(G) → x (zero-length paths are join identities).
  bool join_identity = true;
  /// ϕs(ϕs(x)) → ϕs(x).
  bool recursive_idempotent = true;
  /// §7.3's ϕWalk→ϕShortest rescue; changes semantics on cyclic graphs.
  bool enable_walk_rescue = false;
  /// Fixpoint bound.
  size_t max_passes = 16;
  /// Cost-based join re-association (⋈ is associative but not commutative:
  /// only the grouping may change). Requires `stats`; no-op otherwise.
  bool join_reassociation = true;
  /// Graph statistics for the cost-based rules; optional (not owned).
  const GraphStats* stats = nullptr;
};

struct OptimizeResult {
  PlanPtr plan;
  /// Rule names in application order, e.g. {"select-pushdown",
  /// "select-merge"}; useful for tests and EXPLAIN-style output.
  std::vector<std::string> applied;
};

/// Rewrites `plan` to a fixpoint of the enabled rules.
OptimizeResult Optimize(const PlanPtr& plan,
                        const OptimizerOptions& options = {});

}  // namespace pathalg

#endif  // PATHALG_PLAN_OPTIMIZER_H_

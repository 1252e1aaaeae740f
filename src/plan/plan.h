#ifndef PATHALG_PLAN_PLAN_H_
#define PATHALG_PLAN_PLAN_H_

/// \file plan.h
/// Logical plans: "evaluation trees for path algebra expressions can
/// function as logical plans for evaluating path queries" (§1, §7). A plan
/// is an immutable tree of algebra operators; leaves are the atoms Nodes(G)
/// and Edges(G).
///
/// Plans are value-typed at two levels: an operator either produces a *set
/// of paths* (σ, ⋈, ∪, ∩, −, ϕ, π and the scans) or a *solution space*
/// (γ, τ). Validate() enforces the paper's typing rules:
///   γ  : paths → space        τ : space → space      π : space → paths
///   everything else : paths → paths.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/condition.h"
#include "algebra/recursive.h"
#include "algebra/solution_space.h"
#include "common/status.h"

namespace pathalg {

enum class PlanKind {
  kNodesScan,   // Nodes(G)
  kEdgesScan,   // Edges(G)
  kSelect,      // σ_c
  kJoin,        // ⋈
  kUnion,       // ∪
  kIntersect,   // ∩ (extension)
  kDifference,  // − (extension)
  kRecursive,   // ϕ_semantics
  kRestrict,    // ρ_semantics — whole-path restrictor filter (extension):
                // drops paths violating trail/acyclic/simple, keeps
                // per-pair minima for shortest. Lets plans express GQL's
                // whole-path restrictor reading and the outer restrictor of
                // §2.3 sequenced queries.
  kGroupBy,     // γ_ψ
  kOrderBy,     // τ_θ
  kProject,     // π_(#P,#G,#A)
};

/// Number of PlanKind enumerators; sizes per-operator stats arrays.
inline constexpr size_t kNumPlanKinds =
    static_cast<size_t>(PlanKind::kProject) + 1;

const char* PlanKindToString(PlanKind k);

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

/// What a ϕ node computes: ϕ_semantics over its input, keeping only the
/// paths whose first node satisfies `source` (null: every path). The
/// select-into-closure rule (plan/optimizer.h) fills `source` from the
/// first-node conjuncts of a σ over the ϕ; the evaluator resolves it to
/// seed nodes once per evaluation (PhiSpec, algebra/recursive.h).
/// Converts implicitly from PathSemantics, with no source.
struct ClosureSpec {
  ClosureSpec(PathSemantics s, ConditionPtr src = nullptr)
      : semantics(s), source(std::move(src)) {}

  /// `SHORTEST`, or `SHORTEST; first.name = "p3"` with a source.
  std::string ToString() const;

  PathSemantics semantics;
  ConditionPtr source;
};

/// Static [min, max] bound on the length of any path an operator can emit;
/// max is nullopt for "unbounded" (ϕ). Used by the optimizer to justify
/// positional-condition pushdown.
struct LengthBounds {
  size_t min = 0;
  std::optional<size_t> max;
};

class PlanNode {
 public:
  PlanKind kind() const { return kind_; }
  const std::vector<PlanPtr>& children() const { return children_; }
  const PlanPtr& child(size_t i = 0) const { return children_[i]; }

  /// kSelect only.
  const ConditionPtr& condition() const { return condition_; }
  /// kRecursive and kRestrict.
  PathSemantics semantics() const { return closure_.semantics; }
  /// kRecursive only (a kRestrict's spec never has a source).
  const ClosureSpec& closure() const { return closure_; }
  /// kGroupBy only.
  GroupKey group_key() const { return group_key_; }
  /// kOrderBy only.
  OrderKey order_key() const { return order_key_; }
  /// kProject only.
  const ProjectionSpec& projection() const { return projection_; }

  /// True if this operator produces a solution space (γ, τ); false if it
  /// produces a set of paths.
  bool ProducesSpace() const {
    return kind_ == PlanKind::kGroupBy || kind_ == PlanKind::kOrderBy;
  }

  /// Checks arity and path/space typing of the whole subtree.
  Status Validate() const;

  /// Static length-bounds analysis (meaningful for path-typed nodes).
  LengthBounds Bounds() const;

  /// Structural equality of plans (conditions compared structurally).
  bool Equals(const PlanNode& other) const;

  /// Compact algebra rendering, e.g.
  /// `π(*,*,1)(τ[A](γ[ST](ϕ[TRAIL](σ[label(edge(1)) = "Knows"](Edges(G))))))`.
  std::string ToAlgebraString() const;

  /// Indented tree rendering:
  ///   Project (* PARTITIONS, * GROUPS, 1 PATHS)
  ///     OrderBy (A)
  ///       ...
  std::string ToTreeString() const;

  // Factories ----------------------------------------------------------------
  static PlanPtr NodesScan();
  static PlanPtr EdgesScan();
  static PlanPtr Select(ConditionPtr condition, PlanPtr input);
  static PlanPtr Join(PlanPtr left, PlanPtr right);
  static PlanPtr Union(PlanPtr left, PlanPtr right);
  static PlanPtr Intersect(PlanPtr left, PlanPtr right);
  static PlanPtr Difference(PlanPtr left, PlanPtr right);
  static PlanPtr Recursive(ClosureSpec closure, PlanPtr input);
  static PlanPtr Restrict(PathSemantics semantics, PlanPtr input);
  static PlanPtr GroupBy(GroupKey key, PlanPtr input);
  static PlanPtr OrderBy(OrderKey key, PlanPtr input);
  static PlanPtr Project(ProjectionSpec spec, PlanPtr input);

 private:
  friend struct PlanBuilderAccess;
  PlanNode() = default;

  PlanKind kind_ = PlanKind::kNodesScan;
  std::vector<PlanPtr> children_;
  ConditionPtr condition_;
  ClosureSpec closure_{PathSemantics::kWalk};
  GroupKey group_key_ = GroupKey::kNone;
  OrderKey order_key_ = OrderKey::kA;
  ProjectionSpec projection_;
};

}  // namespace pathalg

#endif  // PATHALG_PLAN_PLAN_H_

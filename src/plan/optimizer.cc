#include "plan/optimizer.h"

#include <limits>
#include <optional>

namespace pathalg {

namespace {

constexpr size_t kDynamic = std::numeric_limits<size_t>::max();

/// Flattens a condition into its top-level conjuncts.
void Conjuncts(const ConditionPtr& c, std::vector<ConditionPtr>* out) {
  if (c->kind() == Condition::Kind::kAnd) {
    Conjuncts(c->left(), out);
    Conjuncts(c->right(), out);
  } else {
    out->push_back(c);
  }
}

/// Left-folds conjuncts back into a single condition; nullptr when empty.
ConditionPtr AndAll(const std::vector<ConditionPtr>& cs) {
  if (cs.empty()) return nullptr;
  ConditionPtr acc = cs[0];
  for (size_t i = 1; i < cs.size(); ++i) {
    acc = Condition::And(acc, cs[i]);
  }
  return acc;
}

/// Wraps `input` in a Select unless the condition is empty.
PlanPtr MaybeSelect(const std::vector<ConditionPtr>& conjuncts,
                    PlanPtr input) {
  ConditionPtr c = AndAll(conjuncts);
  return c == nullptr ? input : PlanNode::Select(std::move(c),
                                                 std::move(input));
}

/// True if every leaf of `c` reads only the path's endpoints (first/last
/// node label or property). Such conditions are constant within an
/// (source, target) partition, so they commute with the ϕWalk→ϕShortest
/// rewrites: a pair either keeps all of its paths or none.
bool DependsOnlyOnEndpoints(const Condition& c) {
  switch (c.kind()) {
    case Condition::Kind::kSimple:
      switch (c.access()) {
        case AccessKind::kFirstLabel:
        case AccessKind::kFirstProp:
        case AccessKind::kLastLabel:
        case AccessKind::kLastProp:
          return true;
        case AccessKind::kNodeLabel:
        case AccessKind::kNodeProp:
          return c.position() == 1;
        default:
          return false;
      }
    case Condition::Kind::kAnd:
    case Condition::Kind::kOr:
      return DependsOnlyOnEndpoints(*c.left()) &&
             DependsOnlyOnEndpoints(*c.right());
    case Condition::Kind::kNot:
      return DependsOnlyOnEndpoints(*c.left());
  }
  return false;
}

/// If `plan` is a (possibly empty) chain of endpoint-only Selects over
/// ϕWalk(x), returns ϕ<new_semantics>(x) re-wrapped in the same Selects;
/// nullptr when the shape does not match. The ϕ keeps its source: a
/// first-node filter is endpoint-only too.
PlanPtr SwapWalkSemanticsThroughEndpointSelects(
    const PlanPtr& plan, PathSemantics new_semantics) {
  if (plan->kind() == PlanKind::kRecursive &&
      plan->semantics() == PathSemantics::kWalk) {
    return PlanNode::Recursive({new_semantics, plan->closure().source},
                               plan->child());
  }
  if (plan->kind() == PlanKind::kSelect &&
      DependsOnlyOnEndpoints(*plan->condition())) {
    PlanPtr inner = SwapWalkSemanticsThroughEndpointSelects(
        plan->child(), new_semantics);
    if (inner == nullptr) return nullptr;
    return PlanNode::Select(plan->condition(), std::move(inner));
  }
  return nullptr;
}

struct Rewriter {
  const OptimizerOptions& options;
  std::vector<std::string>* applied;

  void Note(const char* rule) { applied->emplace_back(rule); }

  // --- σ rules -------------------------------------------------------------

  std::optional<PlanPtr> TrySelect(const PlanPtr& node) {
    const PlanPtr& input = node->child();
    const ConditionPtr& cond = node->condition();

    // select-merge: σc1(σc2(x)) → σ(c1 AND c2)(x).
    if (options.select_merge && input->kind() == PlanKind::kSelect) {
      Note("select-merge");
      return PlanNode::Select(Condition::And(cond, input->condition()),
                              input->child());
    }
    // select-into-closure: σc(ϕ(x)) moves c's first-node conjuncts into
    // ϕ's source. First(p1 ◦ … ◦ pk) = First(p1), so the filter keeps or
    // drops a composition by its first segment alone:
    //  - WALK, TRAIL, ACYCLIC, SIMPLE: the restrictor judges a path by
    //    its own nodes and edges, never by which other paths exist, so
    //    the seed-first compositions are the same set either way;
    //  - SHORTEST: minimality is per (first, last) pair, and the filter
    //    keeps or drops whole pairs.
    // last.*, len() and mixed conjuncts stay in σ.
    if (options.select_pushdown && input->kind() == PlanKind::kRecursive) {
      std::vector<ConditionPtr> all, source, keep;
      Conjuncts(cond, &all);
      for (const ConditionPtr& c : all) {
        (RefersOnlyToFirstNode(*c) ? source : keep).push_back(c);
      }
      if (!source.empty()) {
        Note("select-into-closure");
        const ClosureSpec& closure = input->closure();
        if (closure.source != nullptr) {
          source.insert(source.begin(), closure.source);
        }
        return MaybeSelect(
            keep, PlanNode::Recursive({closure.semantics, AndAll(source)},
                                      input->child()));
      }
    }
    // select-pushdown through ∪: σc(a ∪ b) → σc(a) ∪ σc(b).
    if (options.select_pushdown && input->kind() == PlanKind::kUnion) {
      Note("select-pushdown");
      return PlanNode::Union(PlanNode::Select(cond, input->child(0)),
                             PlanNode::Select(cond, input->child(1)));
    }
    // select-pushdown through ∩ and −: membership in the right operand is
    // unaffected by filtering the left.
    if (options.select_pushdown &&
        (input->kind() == PlanKind::kIntersect ||
         input->kind() == PlanKind::kDifference)) {
      Note("select-pushdown");
      PlanPtr filtered_left = PlanNode::Select(cond, input->child(0));
      return input->kind() == PlanKind::kIntersect
                 ? PlanNode::Intersect(std::move(filtered_left),
                                       input->child(1))
                 : PlanNode::Difference(std::move(filtered_left),
                                        input->child(1));
    }
    // select-pushdown through a non-shortest ρ: both are per-path filters
    // and commute. (ρShortest is a set-level filter: pushing σ through it
    // could resurrect longer paths, so it stays put.)
    if (options.select_pushdown && input->kind() == PlanKind::kRestrict &&
        input->semantics() != PathSemantics::kShortest) {
      Note("select-pushdown");
      return PlanNode::Restrict(
          input->semantics(), PlanNode::Select(cond, input->child()));
    }
    // select-pushdown through ⋈ (Figure 6): move each conjunct to the side
    // that determines its accesses.
    if (options.select_pushdown && input->kind() == PlanKind::kJoin) {
      const PlanPtr& left = input->child(0);
      const PlanPtr& right = input->child(1);
      LengthBounds lb = left->Bounds();
      // Left has a statically fixed length k: positions 1..k+1 (nodes) and
      // 1..k (edges) of the joined path live entirely in the left operand.
      std::optional<size_t> fixed_k;
      if (lb.max.has_value() && *lb.max == lb.min) fixed_k = lb.min;

      std::vector<ConditionPtr> all, to_left, to_right, keep;
      Conjuncts(cond, &all);
      for (const ConditionPtr& c : all) {
        if (RefersOnlyToFirstNode(*c)) {
          // First(p1 ◦ p2) = First(p1): always safe to evaluate on p1.
          to_left.push_back(c);
        } else if (RefersOnlyToLastNode(*c)) {
          to_right.push_back(c);
        } else if (fixed_k.has_value() &&
                   MaxNodePosition(*c, kDynamic) <= *fixed_k + 1 &&
                   MaxEdgePosition(*c, kDynamic) <= *fixed_k &&
                   !UsesLen(*c)) {
          to_left.push_back(c);
        } else {
          keep.push_back(c);
        }
      }
      if (!to_left.empty() || !to_right.empty()) {
        Note("select-pushdown");
        PlanPtr join = PlanNode::Join(MaybeSelect(to_left, left),
                                      MaybeSelect(to_right, right));
        return MaybeSelect(keep, join);
      }
    }
    return std::nullopt;
  }

  // --- τ rules -------------------------------------------------------------

  std::optional<PlanPtr> TryOrderBy(const PlanPtr& node) {
    if (!options.orderby_simplify) return std::nullopt;
    const PlanPtr& input = node->child();
    OrderKey key = node->order_key();

    // Merge consecutive order-bys: the Δ′ formulas of Table 6 are
    // level-independent and idempotent, so τθ1(τθ2(x)) = τ(θ1 ∪ θ2)(x).
    if (input->kind() == PlanKind::kOrderBy) {
      bool p = OrderKeyOrdersPartitions(key) ||
               OrderKeyOrdersPartitions(input->order_key());
      bool grp = OrderKeyOrdersGroups(key) ||
                 OrderKeyOrdersGroups(input->order_key());
      bool a = OrderKeyOrdersPaths(key) ||
               OrderKeyOrdersPaths(input->order_key());
      Note("orderby-simplify");
      return PlanNode::OrderBy(*MakeOrderKeyFromComponents(p, grp, a),
                               input->child());
    }

    // Drop components that cannot matter for the child γψ's organization
    // (§6's example: τPG after γ∅). ψ∈{∅,L} → a single partition; ψ∈{∅,S,
    // T,ST} → one group per partition.
    if (input->kind() == PlanKind::kGroupBy) {
      GroupKey psi = input->group_key();
      bool single_partition =
          psi == GroupKey::kNone || psi == GroupKey::kL;
      bool single_group_per_partition = !GroupKeyUsesLength(psi);
      bool p = OrderKeyOrdersPartitions(key) && !single_partition;
      bool grp = OrderKeyOrdersGroups(key) && !single_group_per_partition;
      bool a = OrderKeyOrdersPaths(key);
      std::optional<OrderKey> reduced = MakeOrderKeyFromComponents(p, grp, a);
      if (!reduced.has_value()) {
        Note("orderby-simplify");
        return input;  // τ is a complete no-op
      }
      if (*reduced != key) {
        Note("orderby-simplify");
        return PlanNode::OrderBy(*reduced, input);
      }
    }
    return std::nullopt;
  }

  // --- ρ and ϕ rules -------------------------------------------------------

  /// True if every path a ϕ/ρ with `producer` semantics emits already
  /// satisfies the `filter` restrictor (the semantics containment lattice:
  /// acyclic ⊆ simple ⊆ trail ⊆ walk; shortest answers are per-pair
  /// minimal by construction).
  static bool ProducerImpliesFilter(PathSemantics producer,
                                    PathSemantics filter) {
    if (filter == PathSemantics::kWalk) return true;
    if (filter == producer) return true;
    switch (filter) {
      case PathSemantics::kTrail:
        return producer == PathSemantics::kAcyclic ||
               producer == PathSemantics::kSimple;
      case PathSemantics::kSimple:
        return producer == PathSemantics::kAcyclic;
      default:
        return false;
    }
  }

  std::optional<PlanPtr> TryRestrict(const PlanPtr& node) {
    const PlanPtr& input = node->child();
    // restrict-elim: ρ over a ϕ or ρ whose output already satisfies it.
    if ((input->kind() == PlanKind::kRecursive ||
         input->kind() == PlanKind::kRestrict) &&
        ProducerImpliesFilter(input->semantics(), node->semantics())) {
      Note("restrict-elim");
      return input;
    }
    // ρWalk is the identity on any input.
    if (node->semantics() == PathSemantics::kWalk) {
      Note("restrict-elim");
      return input;
    }
    // Length-≤1 paths are always trails and always simple, so those two
    // filters are no-ops over atoms (and σ chains above them). NOT true
    // for acyclic — a self-loop edge (n,e,n) repeats its node — nor for
    // shortest, which is a set-level filter (a zero-length path displaces
    // same-pair self-loops).
    LengthBounds b = input->Bounds();
    if ((node->semantics() == PathSemantics::kTrail ||
         node->semantics() == PathSemantics::kSimple) &&
        b.max.has_value() && *b.max <= 1) {
      Note("restrict-elim");
      return input;
    }
    return std::nullopt;
  }

  std::optional<PlanPtr> TryRecursive(const PlanPtr& node) {
    const PlanPtr& input = node->child();
    // recursive-idempotent: ϕs(ϕs(x)) = ϕs(x). Compositions of
    // s-compositions are s-compositions whose boundary prefixes already
    // satisfy s (prefix-closure holds for each semantics as argued in
    // DESIGN.md), so the outer ϕ adds nothing. The outer's source is a
    // filter on the result and carries over; a sourced inner ϕ is left
    // alone, since the argument is for an inner ϕ over all of x.
    if (input->kind() == PlanKind::kRecursive &&
        input->semantics() == node->semantics() &&
        input->closure().source == nullptr) {
      Note("recursive-idempotent");
      return PlanNode::Recursive(node->closure(), input->child());
    }
    return std::nullopt;
  }

  std::optional<PlanPtr> TryJoin(const PlanPtr& node) {
    // join-identity: x ⋈ Nodes(G) = x = Nodes(G) ⋈ x — every path's
    // endpoint has its zero-length continuation in Nodes(G).
    if (options.join_identity) {
      if (node->child(1)->kind() == PlanKind::kNodesScan) {
        Note("join-identity");
        return node->child(0);
      }
      if (node->child(0)->kind() == PlanKind::kNodesScan) {
        Note("join-identity");
        return node->child(1);
      }
    }
    // join-reassociation (cost-based): ⋈ is associative; pick the grouping
    // with the cheaper estimate. (a⋈b)⋈c ↔ a⋈(b⋈c).
    if (options.join_reassociation && options.stats != nullptr) {
      const GraphStats& stats = *options.stats;
      if (node->child(0)->kind() == PlanKind::kJoin) {
        PlanPtr alt = PlanNode::Join(
            node->child(0)->child(0),
            PlanNode::Join(node->child(0)->child(1), node->child(1)));
        if (EstimateCost(alt, stats).cost <
            EstimateCost(node, stats).cost) {
          Note("join-reassociation");
          return alt;
        }
      }
      if (node->child(1)->kind() == PlanKind::kJoin) {
        PlanPtr alt = PlanNode::Join(
            PlanNode::Join(node->child(0), node->child(1)->child(0)),
            node->child(1)->child(1));
        if (EstimateCost(alt, stats).cost <
            EstimateCost(node, stats).cost) {
          Note("join-reassociation");
          return alt;
        }
      }
    }
    return std::nullopt;
  }

  static std::optional<OrderKey> MakeOrderKeyFromComponents(bool p, bool g,
                                                            bool a) {
    if (p && g && a) return OrderKey::kPGA;
    if (p && g) return OrderKey::kPG;
    if (p && a) return OrderKey::kPA;
    if (g && a) return OrderKey::kGA;
    if (p) return OrderKey::kP;
    if (g) return OrderKey::kG;
    if (a) return OrderKey::kA;
    return std::nullopt;
  }

  // --- π rules -------------------------------------------------------------

  std::optional<PlanPtr> TryProject(const PlanPtr& node) {
    const ProjectionSpec& spec = node->projection();

    // project-all: π(*,*,*) over any γ/τ chain returns every path.
    if (options.project_all && !spec.partitions.has_value() &&
        !spec.groups.has_value() && !spec.paths.has_value()) {
      PlanPtr base = node->child();
      while (base->ProducesSpace()) base = base->child();
      Note("project-all");
      return base;
    }

    // any-shortest: π(*,*,1)(τA(γST(ϕWalk(x)))) — only a per-pair shortest
    // path survives, so ϕWalk can become ϕShortest. Exact because ties
    // resolve canonically and partition numbering is canonical. The γ may
    // sit over endpoint-only σ chains (the regex compiler emits endpoint
    // filters there); those commute with ST-partitions.
    if (options.any_shortest && spec.paths == 1) {
      const PlanPtr& tau = node->child();
      if (tau->kind() == PlanKind::kOrderBy &&
          tau->order_key() == OrderKey::kA) {
        const PlanPtr& gamma = tau->child();
        if (gamma->kind() == PlanKind::kGroupBy &&
            gamma->group_key() == GroupKey::kST) {
          PlanPtr swapped = SwapWalkSemanticsThroughEndpointSelects(
              gamma->child(), PathSemantics::kShortest);
          if (swapped != nullptr) {
            Note("any-shortest");
            return PlanNode::Project(
                spec, PlanNode::OrderBy(
                          OrderKey::kA,
                          PlanNode::GroupBy(GroupKey::kST,
                                            std::move(swapped))));
          }
        }
      }
    }

    // all-shortest: π(*,1,*)(τG(γSTL(ϕWalk(x)))) → same with ϕShortest.
    // The first length-group of each (s,t) partition is exactly the
    // per-pair shortest set.
    if (options.any_shortest && spec.groups == 1 &&
        !spec.paths.has_value()) {
      const PlanPtr& tau = node->child();
      if (tau->kind() == PlanKind::kOrderBy &&
          tau->order_key() == OrderKey::kG) {
        const PlanPtr& gamma = tau->child();
        if (gamma->kind() == PlanKind::kGroupBy &&
            gamma->group_key() == GroupKey::kSTL) {
          PlanPtr swapped = SwapWalkSemanticsThroughEndpointSelects(
              gamma->child(), PathSemantics::kShortest);
          if (swapped != nullptr) {
            Note("any-shortest");
            return PlanNode::Project(
                spec, PlanNode::OrderBy(
                          OrderKey::kG,
                          PlanNode::GroupBy(GroupKey::kSTL,
                                            std::move(swapped))));
          }
        }
      }
    }

    // walk-to-shortest (§7.3): π(#p,#g,*)(τG(γL(ϕWalk(x)))) → ϕShortest.
    // Exact when #g == 1 (the first length-group is the set of globally
    // shortest paths either way — endpoint-only σ keeps/drops whole pairs,
    // so the argument survives the σ chain); a semantics-changing rescue
    // otherwise, gated behind enable_walk_rescue.
    if (!spec.paths.has_value()) {
      const PlanPtr& tau = node->child();
      if (tau->kind() == PlanKind::kOrderBy &&
          tau->order_key() == OrderKey::kG) {
        const PlanPtr& gamma = tau->child();
        if (gamma->kind() == PlanKind::kGroupBy &&
            gamma->group_key() == GroupKey::kL) {
          PlanPtr swapped = SwapWalkSemanticsThroughEndpointSelects(
              gamma->child(), PathSemantics::kShortest);
          if (swapped != nullptr) {
            bool exact = spec.groups == 1 && options.any_shortest;
            if (exact || options.enable_walk_rescue) {
              Note(exact ? "global-shortest" : "walk-rescue");
              return PlanNode::Project(
                  spec, PlanNode::OrderBy(
                            OrderKey::kG,
                            PlanNode::GroupBy(GroupKey::kL,
                                              std::move(swapped))));
            }
          }
        }
      }
    }
    return std::nullopt;
  }

  // --- driver --------------------------------------------------------------

  PlanPtr Rewrite(const PlanPtr& node) {
    // Bottom-up: rewrite children, rebuild if any changed.
    std::vector<PlanPtr> kids;
    bool changed = false;
    for (const PlanPtr& c : node->children()) {
      PlanPtr r = Rewrite(c);
      changed |= (r != c);
      kids.push_back(std::move(r));
    }
    PlanPtr cur = node;
    if (changed) cur = RebuildWithChildren(node, std::move(kids));

    // Apply local rules until none fires.
    bool fired = true;
    size_t guard = 0;
    while (fired && guard++ < 64) {
      fired = false;
      std::optional<PlanPtr> r;
      switch (cur->kind()) {
        case PlanKind::kSelect:
          r = TrySelect(cur);
          break;
        case PlanKind::kOrderBy:
          r = TryOrderBy(cur);
          break;
        case PlanKind::kProject:
          r = TryProject(cur);
          break;
        case PlanKind::kRestrict:
          if (options.restrict_elim) r = TryRestrict(cur);
          break;
        case PlanKind::kRecursive:
          if (options.recursive_idempotent) r = TryRecursive(cur);
          break;
        case PlanKind::kJoin:
          if (options.join_identity ||
              (options.join_reassociation && options.stats != nullptr)) {
            r = TryJoin(cur);
          }
          break;
        case PlanKind::kUnion:
          if (options.union_dedup &&
              cur->child(0)->Equals(*cur->child(1))) {
            Note("union-dedup");
            r = cur->child(0);
          }
          break;
        default:
          break;
      }
      if (r.has_value()) {
        // A local rewrite may expose opportunities below the new root
        // (e.g. pushdown creates nested selects): recurse on the result.
        cur = Rewrite(*r);
        fired = true;
      }
    }
    return cur;
  }

  static PlanPtr RebuildWithChildren(const PlanPtr& node,
                                     std::vector<PlanPtr> kids) {
    switch (node->kind()) {
      case PlanKind::kNodesScan:
      case PlanKind::kEdgesScan:
        return node;
      case PlanKind::kSelect:
        return PlanNode::Select(node->condition(), std::move(kids[0]));
      case PlanKind::kJoin:
        return PlanNode::Join(std::move(kids[0]), std::move(kids[1]));
      case PlanKind::kUnion:
        return PlanNode::Union(std::move(kids[0]), std::move(kids[1]));
      case PlanKind::kIntersect:
        return PlanNode::Intersect(std::move(kids[0]), std::move(kids[1]));
      case PlanKind::kDifference:
        return PlanNode::Difference(std::move(kids[0]), std::move(kids[1]));
      case PlanKind::kRecursive:
        return PlanNode::Recursive(node->closure(), std::move(kids[0]));
      case PlanKind::kRestrict:
        return PlanNode::Restrict(node->semantics(), std::move(kids[0]));
      case PlanKind::kGroupBy:
        return PlanNode::GroupBy(node->group_key(), std::move(kids[0]));
      case PlanKind::kOrderBy:
        return PlanNode::OrderBy(node->order_key(), std::move(kids[0]));
      case PlanKind::kProject:
        return PlanNode::Project(node->projection(), std::move(kids[0]));
    }
    return node;
  }
};

}  // namespace

OptimizeResult Optimize(const PlanPtr& plan, const OptimizerOptions& options) {
  OptimizeResult result;
  result.plan = plan;
  if (plan == nullptr) return result;
  Rewriter rewriter{options, &result.applied};
  for (size_t pass = 0; pass < options.max_passes; ++pass) {
    PlanPtr next = rewriter.Rewrite(result.plan);
    if (next->Equals(*result.plan)) break;
    result.plan = next;
  }
  return result;
}

}  // namespace pathalg

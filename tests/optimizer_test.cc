// Tests for the optimizer (§7.3): each rewrite rule in isolation (plan
// shape assertions) plus result-preservation properties on real graphs —
// including the paper's Figure 6 pushdown and the ϕWalk→ϕShortest family.

#include <gtest/gtest.h>

#include <algorithm>

#include "plan/evaluator.h"
#include "plan/optimizer.h"
#include "workload/figure1.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

PlanPtr KnowsEdgesPlan() {
  return PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan());
}

bool Applied(const OptimizeResult& r, std::string_view rule) {
  return std::find(r.applied.begin(), r.applied.end(), rule) !=
         r.applied.end();
}

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeFigure1Graph(&ids_); }
  PropertyGraph g_;
  Figure1Ids ids_;
};

// ---------------------------------------------------------------------------
// Figure 6: predicate pushdown through the join.
// ---------------------------------------------------------------------------
TEST_F(OptimizerTest, Figure6PushdownShape) {
  // 6a: σ_{first.name="Moe"}(σK(E) ⋈ σK(E)).
  PlanPtr plan_6a =
      PlanNode::Select(FirstPropEq("name", Value("Moe")),
                       PlanNode::Join(KnowsEdgesPlan(), KnowsEdgesPlan()));
  OptimizeResult opt = Optimize(plan_6a);
  EXPECT_TRUE(Applied(opt, "select-pushdown"));
  // 6b (after pushdown + merge): σ merged into the left scan's select.
  PlanPtr plan_6b = PlanNode::Join(
      PlanNode::Select(Condition::And(FirstPropEq("name", Value("Moe")),
                                      EdgeLabelEq(1, "Knows")),
                       PlanNode::EdgesScan()),
      KnowsEdgesPlan());
  EXPECT_TRUE(opt.plan->Equals(*plan_6b))
      << "got:\n"
      << opt.plan->ToTreeString() << "want:\n"
      << plan_6b->ToTreeString();
}

TEST_F(OptimizerTest, Figure6PushdownPreservesResult) {
  PlanPtr plan = PlanNode::Select(
      FirstPropEq("name", Value("Moe")),
      PlanNode::Join(KnowsEdgesPlan(), KnowsEdgesPlan()));
  auto before = Evaluate(g_, plan);
  auto after = Evaluate(g_, Optimize(plan).plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(OptimizerTest, LastConditionPushesRight) {
  PlanPtr plan = PlanNode::Select(
      LastPropEq("name", Value("Apu")),
      PlanNode::Join(KnowsEdgesPlan(), KnowsEdgesPlan()));
  OptimizeResult opt = Optimize(plan);
  PlanPtr want = PlanNode::Join(
      KnowsEdgesPlan(),
      PlanNode::Select(Condition::And(LastPropEq("name", Value("Apu")),
                                      EdgeLabelEq(1, "Knows")),
                       PlanNode::EdgesScan()));
  EXPECT_TRUE(opt.plan->Equals(*want)) << opt.plan->ToTreeString();
}

TEST_F(OptimizerTest, ConjunctsSplitAcrossJoin) {
  // first.* goes left, last.* goes right, len() stays above.
  auto cond = Condition::And(
      Condition::And(FirstPropEq("name", Value("Moe")),
                     LastPropEq("name", Value("Apu"))),
      LenEq(2));
  PlanPtr plan = PlanNode::Select(
      cond, PlanNode::Join(KnowsEdgesPlan(), KnowsEdgesPlan()));
  OptimizeResult opt = Optimize(plan);
  ASSERT_EQ(opt.plan->kind(), PlanKind::kSelect);
  EXPECT_TRUE(UsesLen(*opt.plan->condition()));
  EXPECT_FALSE(RefersOnlyToFirstNode(*opt.plan->condition()));
  ASSERT_EQ(opt.plan->child()->kind(), PlanKind::kJoin);
  auto before = Evaluate(g_, plan);
  auto after = Evaluate(g_, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(OptimizerTest, PositionalConditionsPushWhenLeftIsFixedLength) {
  // Left operand of the join is Edges (fixed length 1): edge(1) and
  // node(2) live in the left side; edge(2) does not.
  auto cond = Condition::And(
      Condition::And(EdgeLabelEq(1, "Knows"), EdgeLabelEq(2, "Knows")),
      NodePropEq(2, "name", Value("Homer")));
  PlanPtr plan = PlanNode::Select(
      cond, PlanNode::Join(PlanNode::EdgesScan(), PlanNode::EdgesScan()));
  OptimizeResult opt = Optimize(plan);
  // edge(2) must remain above the join.
  ASSERT_EQ(opt.plan->kind(), PlanKind::kSelect);
  EXPECT_EQ(MaxEdgePosition(*opt.plan->condition(), 99), 2u);
  // edge(1) and node(2) moved into the left operand.
  ASSERT_EQ(opt.plan->child()->kind(), PlanKind::kJoin);
  const PlanPtr& left = opt.plan->child()->child(0);
  ASSERT_EQ(left->kind(), PlanKind::kSelect);
  EXPECT_EQ(MaxEdgePosition(*left->condition(), 99), 1u);
  auto before = Evaluate(g_, plan);
  auto after = Evaluate(g_, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(OptimizerTest, PositionalConditionsDontPushPastUnboundedLeft) {
  // Left operand is a ϕ: its length is not statically fixed, so a
  // positional condition must stay above the join.
  PlanPtr phi = PlanNode::Recursive(PathSemantics::kTrail, KnowsEdgesPlan());
  PlanPtr plan = PlanNode::Select(
      EdgeLabelEq(1, "Knows"), PlanNode::Join(phi, PlanNode::EdgesScan()));
  OptimizeResult opt = Optimize(plan);
  ASSERT_EQ(opt.plan->kind(), PlanKind::kSelect);
  ASSERT_EQ(opt.plan->child()->kind(), PlanKind::kJoin);
  EXPECT_EQ(opt.plan->child()->child(0)->kind(), PlanKind::kRecursive);
}

TEST_F(OptimizerTest, PushdownThroughUnion) {
  PlanPtr plan = PlanNode::Select(
      FirstPropEq("name", Value("Moe")),
      PlanNode::Union(KnowsEdgesPlan(), PlanNode::NodesScan()));
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "select-pushdown"));
  ASSERT_EQ(opt.plan->kind(), PlanKind::kUnion);
  auto before = Evaluate(g_, plan);
  auto after = Evaluate(g_, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(OptimizerTest, SelectMerge) {
  PlanPtr plan = PlanNode::Select(
      FirstPropEq("name", Value("Moe")),
      PlanNode::Select(LenEq(1), PlanNode::EdgesScan()));
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "select-merge"));
  ASSERT_EQ(opt.plan->kind(), PlanKind::kSelect);
  EXPECT_EQ(opt.plan->child()->kind(), PlanKind::kEdgesScan);
  auto before = Evaluate(g_, plan);
  auto after = Evaluate(g_, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

// ---------------------------------------------------------------------------
// OrderBy simplification (§6's redundant-τ example).
// ---------------------------------------------------------------------------
TEST_F(OptimizerTest, RedundantOrderByRemovedAfterGroupByNone) {
  // §6: "the order-by operator τPG is unnecessary as the operator γ returns
  // a solution space with a single partition and a single group."
  PlanPtr plan = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kPG,
          PlanNode::GroupBy(GroupKey::kNone,
                            PlanNode::Recursive(PathSemantics::kTrail,
                                                KnowsEdgesPlan()))));
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "orderby-simplify"));
  PlanPtr want = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::GroupBy(GroupKey::kNone,
                        PlanNode::Recursive(PathSemantics::kTrail,
                                            KnowsEdgesPlan())));
  EXPECT_TRUE(opt.plan->Equals(*want)) << opt.plan->ToTreeString();
}

TEST_F(OptimizerTest, OrderByReducedToMeaningfulComponents) {
  // τPGA over γST: the G component is a no-op (one group per partition).
  PlanPtr plan = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kPGA,
          PlanNode::GroupBy(GroupKey::kST,
                            PlanNode::Recursive(PathSemantics::kTrail,
                                                KnowsEdgesPlan()))));
  OptimizeResult opt = Optimize(plan);
  // Find the OrderBy below the Project.
  ASSERT_EQ(opt.plan->kind(), PlanKind::kProject);
  ASSERT_EQ(opt.plan->child()->kind(), PlanKind::kOrderBy);
  EXPECT_EQ(opt.plan->child()->order_key(), OrderKey::kPA);
  auto before = Evaluate(g_, plan);
  auto after = Evaluate(g_, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(OptimizerTest, ConsecutiveOrderBysMerge) {
  PlanPtr plan = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kP,
          PlanNode::OrderBy(
              OrderKey::kA,
              PlanNode::GroupBy(GroupKey::kSTL,
                                PlanNode::Recursive(PathSemantics::kTrail,
                                                    KnowsEdgesPlan())))));
  OptimizeResult opt = Optimize(plan);
  ASSERT_EQ(opt.plan->child()->kind(), PlanKind::kOrderBy);
  EXPECT_EQ(opt.plan->child()->order_key(), OrderKey::kPA);
  EXPECT_EQ(opt.plan->child()->child()->kind(), PlanKind::kGroupBy);
}

// ---------------------------------------------------------------------------
// Union dedup and project-all.
// ---------------------------------------------------------------------------
TEST_F(OptimizerTest, UnionDedup) {
  PlanPtr plan = PlanNode::Union(KnowsEdgesPlan(), KnowsEdgesPlan());
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "union-dedup"));
  EXPECT_TRUE(opt.plan->Equals(*KnowsEdgesPlan()));
}

TEST_F(OptimizerTest, ProjectAllCollapsesToPathSubtree) {
  PlanPtr plan = PlanNode::Project(
      {std::nullopt, std::nullopt, std::nullopt},
      PlanNode::OrderBy(OrderKey::kA,
                        PlanNode::GroupBy(GroupKey::kSTL, KnowsEdgesPlan())));
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "project-all"));
  EXPECT_TRUE(opt.plan->Equals(*KnowsEdgesPlan()));
}

// ---------------------------------------------------------------------------
// ϕWalk → ϕShortest family.
// ---------------------------------------------------------------------------
TEST_F(OptimizerTest, AnyShortestRewriteTerminatesDivergingPlan) {
  // ANY SHORTEST WALK Knows+ — ϕWalk diverges on Figure 1's Knows cycle;
  // after the rewrite the plan terminates and returns one shortest walk
  // per endpoint pair.
  PlanPtr walk_plan = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kA,
          PlanNode::GroupBy(GroupKey::kST,
                            PlanNode::Recursive(PathSemantics::kWalk,
                                                KnowsEdgesPlan()))));
  EvalOptions tight;
  tight.limits.max_path_length = 32;
  tight.limits.truncate = false;
  EXPECT_TRUE(
      Evaluate(g_, walk_plan, tight).status().IsResourceExhausted());

  OptimizeResult opt = Optimize(walk_plan);
  EXPECT_TRUE(Applied(opt, "any-shortest"));
  auto r = Evaluate(g_, opt.plan, tight);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 9u);  // one shortest walk per reachable pair
  for (PathRef p : *r) {
    EXPECT_TRUE(p.IsTrail());  // shortest walks never repeat edges
  }
}

TEST_F(OptimizerTest, AnyShortestRewriteThroughEndpointSelects) {
  // The regex compiler puts endpoint σ between γST and ϕ; endpoint-only
  // conditions commute with ST-partitions, so the rewrite still fires.
  PlanPtr plan = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kA,
          PlanNode::GroupBy(
              GroupKey::kST,
              PlanNode::Select(
                  FirstPropEq("name", Value("Moe")),
                  PlanNode::Recursive(PathSemantics::kWalk,
                                      KnowsEdgesPlan())))));
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "any-shortest"));
  EvalOptions tight;
  tight.limits.max_path_length = 32;
  auto r = Evaluate(g_, opt.plan, tight);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);  // Moe reaches n2, n3, n4

  // A non-endpoint σ (len()) must block the rewrite: dropping longer
  // walks could change which paths satisfy it.
  PlanPtr blocked = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kA,
          PlanNode::GroupBy(
              GroupKey::kST,
              PlanNode::Select(LenEq(3),
                               PlanNode::Recursive(PathSemantics::kWalk,
                                                   KnowsEdgesPlan())))));
  OptimizeResult not_rewritten = Optimize(blocked);
  EXPECT_FALSE(Applied(not_rewritten, "any-shortest"));
}

TEST_F(OptimizerTest, AnyShortestRewriteIsExactOnTerminatingInputs) {
  // On an acyclic graph both plans terminate; results must be identical.
  PropertyGraph chain = MakeChainGraph(7);
  PlanPtr make[2];
  PathSemantics sems[2] = {PathSemantics::kWalk, PathSemantics::kShortest};
  for (int i = 0; i < 2; ++i) {
    make[i] = PlanNode::Project(
        {std::nullopt, std::nullopt, 1},
        PlanNode::OrderBy(
            OrderKey::kA,
            PlanNode::GroupBy(
                GroupKey::kST,
                PlanNode::Recursive(sems[i], PlanNode::EdgesScan()))));
  }
  OptimizeResult opt = Optimize(make[0]);
  EXPECT_TRUE(opt.plan->Equals(*make[1])) << opt.plan->ToTreeString();
  auto walk = Evaluate(chain, make[0]);
  auto shortest = Evaluate(chain, make[1]);
  ASSERT_TRUE(walk.ok() && shortest.ok());
  EXPECT_EQ(*walk, *shortest);
}

TEST_F(OptimizerTest, AllShortestRewrite) {
  PropertyGraph diamonds = MakeDiamondChainGraph(3);
  PlanPtr walk_plan = PlanNode::Project(
      {std::nullopt, 1, std::nullopt},
      PlanNode::OrderBy(
          OrderKey::kG,
          PlanNode::GroupBy(GroupKey::kSTL,
                            PlanNode::Recursive(PathSemantics::kWalk,
                                                PlanNode::EdgesScan()))));
  OptimizeResult opt = Optimize(walk_plan);
  EXPECT_TRUE(Applied(opt, "any-shortest"));
  auto before = Evaluate(diamonds, walk_plan);  // DAG: walk terminates
  auto after = Evaluate(diamonds, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(OptimizerTest, GlobalShortestRewriteExactWhenOneGroup) {
  // §7.3's π(1,1,*)(τG(γL(ϕWalk(X)))): with #g = 1 the rewrite is exact.
  PropertyGraph grid = MakeGridGraph(3, 3, "E");
  PlanPtr walk_plan = PlanNode::Project(
      {1, 1, std::nullopt},
      PlanNode::OrderBy(
          OrderKey::kG,
          PlanNode::GroupBy(GroupKey::kL,
                            PlanNode::Recursive(PathSemantics::kWalk,
                                                PlanNode::EdgesScan()))));
  OptimizeResult opt = Optimize(walk_plan);
  EXPECT_TRUE(Applied(opt, "global-shortest"));
  auto before = Evaluate(grid, walk_plan);
  auto after = Evaluate(grid, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

TEST_F(OptimizerTest, WalkRescueIsGated) {
  // #g = 2 makes the rewrite semantics-changing; it must not fire unless
  // enable_walk_rescue is set.
  PlanPtr plan = PlanNode::Project(
      {1, 2, std::nullopt},
      PlanNode::OrderBy(
          OrderKey::kG,
          PlanNode::GroupBy(GroupKey::kL,
                            PlanNode::Recursive(PathSemantics::kWalk,
                                                KnowsEdgesPlan()))));
  OptimizeResult no_rescue = Optimize(plan);
  EXPECT_FALSE(Applied(no_rescue, "walk-rescue"));
  EXPECT_TRUE(no_rescue.plan->Equals(*plan));

  OptimizerOptions opts;
  opts.enable_walk_rescue = true;
  OptimizeResult rescued = Optimize(plan, opts);
  EXPECT_TRUE(Applied(rescued, "walk-rescue"));
  // The rescued plan terminates where the original diverges.
  EvalOptions tight;
  tight.limits.max_path_length = 32;
  EXPECT_TRUE(Evaluate(g_, plan, tight).status().IsResourceExhausted());
  EXPECT_TRUE(Evaluate(g_, rescued.plan, tight).ok());
}

TEST_F(OptimizerTest, RulesCanBeDisabled) {
  OptimizerOptions off;
  off.select_merge = off.select_pushdown = off.orderby_simplify = false;
  off.union_dedup = off.project_all = off.any_shortest = false;
  PlanPtr plan = PlanNode::Select(
      FirstPropEq("name", Value("Moe")),
      PlanNode::Join(KnowsEdgesPlan(), KnowsEdgesPlan()));
  OptimizeResult opt = Optimize(plan, off);
  EXPECT_TRUE(opt.applied.empty());
  EXPECT_TRUE(opt.plan->Equals(*plan));
}

// ---------------------------------------------------------------------------
// select-into-closure: first-node conjuncts of σ over ϕ become ϕ's source.
// ---------------------------------------------------------------------------
TEST_F(OptimizerTest, SelectIntoClosureMovesFirstNodeConjuncts) {
  PlanPtr plan = PlanNode::Select(
      Condition::And(FirstPropEq("name", Value("Moe")),
                     NodeLabelEq(1, "Person")),
      PlanNode::Recursive(PathSemantics::kTrail, KnowsEdgesPlan()));
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "select-into-closure"));
  PlanPtr want = PlanNode::Recursive(
      {PathSemantics::kTrail,
       Condition::And(FirstPropEq("name", Value("Moe")),
                      NodeLabelEq(1, "Person"))},
      KnowsEdgesPlan());
  EXPECT_TRUE(opt.plan->Equals(*want)) << opt.plan->ToAlgebraString();
  EXPECT_EQ(opt.plan->ToAlgebraString(),
            "ϕ[TRAIL; (first.name = \"Moe\" AND label(node(1)) = "
            "\"Person\")](σ[label(edge(1)) = \"Knows\"](Edges(G)))");
  for (PhiEngine engine : {PhiEngine::kOptimized, PhiEngine::kNaive}) {
    EvalOptions options;
    options.engine = engine;
    auto before = Evaluate(g_, plan, options);
    auto after = Evaluate(g_, opt.plan, options);
    ASSERT_TRUE(before.ok() && after.ok());
    EXPECT_EQ(before->paths(), after->paths());
    // Moe's Knows trails: n1→n2, then on to n3 or n4, and n1→n2→n3→n2
    // with its extension to n4.
    EXPECT_EQ(after->size(), 5u);
  }
}

TEST_F(OptimizerTest, SelectIntoClosureLeavesOtherConjunctsInSelect) {
  // last.*, len(), OR-mixed and multi-position conjuncts stay in σ; the
  // first-node one moves.
  ConditionPtr stay = Condition::And(
      Condition::And(Condition::And(LastPropEq("name", Value("Apu")),
                                    LenCompare(CompareOp::kLe, 3)),
                     Condition::Or(FirstPropEq("name", Value("Moe")),
                                   LastPropEq("name", Value("Apu")))),
      Condition::Or(NodeLabelEq(1, "Person"), NodeLabelEq(2, "Person")));
  PlanPtr blocked = PlanNode::Select(
      stay, PlanNode::Recursive(PathSemantics::kAcyclic, KnowsEdgesPlan()));
  OptimizeResult none = Optimize(blocked);
  EXPECT_FALSE(Applied(none, "select-into-closure"));
  EXPECT_TRUE(none.plan->Equals(*blocked)) << none.plan->ToAlgebraString();

  PlanPtr mixed = PlanNode::Select(
      Condition::And(stay, FirstPropEq("name", Value("Moe"))),
      PlanNode::Recursive(PathSemantics::kAcyclic, KnowsEdgesPlan()));
  OptimizeResult opt = Optimize(mixed);
  EXPECT_TRUE(Applied(opt, "select-into-closure"));
  PlanPtr want = PlanNode::Select(
      stay, PlanNode::Recursive({PathSemantics::kAcyclic,
                                 FirstPropEq("name", Value("Moe"))},
                                KnowsEdgesPlan()));
  EXPECT_TRUE(opt.plan->Equals(*want)) << opt.plan->ToAlgebraString();
  auto before = Evaluate(g_, mixed);
  auto after = Evaluate(g_, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->paths(), after->paths());
}

TEST_F(OptimizerTest, SelectIntoClosureIsGatedBySelectPushdown) {
  PlanPtr plan = PlanNode::Select(
      FirstPropEq("name", Value("Moe")),
      PlanNode::Recursive(PathSemantics::kTrail, KnowsEdgesPlan()));
  OptimizerOptions off;
  off.select_pushdown = false;
  OptimizeResult opt = Optimize(plan, off);
  EXPECT_FALSE(Applied(opt, "select-into-closure"));
  EXPECT_TRUE(opt.plan->Equals(*plan));
}

TEST_F(OptimizerTest, ShortestRewritesFireWhicheverRuleRunsFirst) {
  // any-shortest, all-shortest and global-shortest must keep firing when
  // the endpoint filter has already moved into ϕ's source, and when it
  // has not (select_pushdown off).
  auto over = [&](OrderKey order, GroupKey group, ProjectionSpec spec) {
    return PlanNode::Project(
        spec, PlanNode::OrderBy(
                  order, PlanNode::GroupBy(
                             group, PlanNode::Select(
                                        FirstPropEq("name", Value("Moe")),
                                        PlanNode::Recursive(
                                            PathSemantics::kWalk,
                                            KnowsEdgesPlan())))));
  };
  const struct {
    PlanPtr plan;
    const char* rule;
    size_t answer;
  } cases[] = {
      {over(OrderKey::kA, GroupKey::kST, {std::nullopt, std::nullopt, 1}),
       "any-shortest", 3},
      {over(OrderKey::kG, GroupKey::kSTL, {std::nullopt, 1, std::nullopt}),
       "any-shortest", 3},
      {over(OrderKey::kG, GroupKey::kL, {std::nullopt, 1, std::nullopt}),
       "global-shortest", 1},
  };
  EvalOptions tight;
  tight.limits.max_path_length = 32;
  for (const auto& c : cases) {
    OptimizerOptions no_pushdown;
    no_pushdown.select_pushdown = false;
    for (const OptimizerOptions& options : {OptimizerOptions{}, no_pushdown}) {
      OptimizeResult opt = Optimize(c.plan, options);
      EXPECT_TRUE(Applied(opt, c.rule)) << opt.plan->ToAlgebraString();
      EXPECT_EQ(Applied(opt, "select-into-closure"), options.select_pushdown);
      auto r = Evaluate(g_, opt.plan, tight);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->size(), c.answer) << opt.plan->ToAlgebraString();
    }
  }
}

TEST_F(OptimizerTest, RecursiveIdempotentRefusesASourcedInnerPhi) {
  PlanPtr sourced_inner = PlanNode::Recursive(
      PathSemantics::kTrail,
      PlanNode::Recursive(
          {PathSemantics::kTrail, FirstPropEq("name", Value("Moe"))},
          KnowsEdgesPlan()));
  OptimizeResult opt = Optimize(sourced_inner);
  EXPECT_FALSE(Applied(opt, "recursive-idempotent"));
  EXPECT_TRUE(opt.plan->Equals(*sourced_inner));

  // An outer source is a filter on the result and carries over.
  PlanPtr sourced_outer = PlanNode::Recursive(
      {PathSemantics::kTrail, FirstPropEq("name", Value("Moe"))},
      PlanNode::Recursive(PathSemantics::kTrail, KnowsEdgesPlan()));
  OptimizeResult carried = Optimize(sourced_outer);
  EXPECT_TRUE(Applied(carried, "recursive-idempotent"));
  EXPECT_TRUE(carried.plan->Equals(*PlanNode::Recursive(
      {PathSemantics::kTrail, FirstPropEq("name", Value("Moe"))},
      KnowsEdgesPlan())))
      << carried.plan->ToAlgebraString();
  auto before = Evaluate(g_, sourced_outer);
  auto after = Evaluate(g_, carried.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

// ---------------------------------------------------------------------------
// Property: optimization preserves results on random graphs.
// ---------------------------------------------------------------------------
TEST(OptimizerPropertyTest, OptimizedPlansPreserveResults) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PropertyGraph g = MakeRandomGraph(8, 14, {"a", "b"}, seed);
    auto knows_a =
        PlanNode::Select(EdgeLabelEq(1, "a"), PlanNode::EdgesScan());
    auto knows_b =
        PlanNode::Select(EdgeLabelEq(1, "b"), PlanNode::EdgesScan());
    std::vector<PlanPtr> plans = {
        PlanNode::Select(NodePropEq(1, "id", Value(0)),
                         PlanNode::Join(knows_a, knows_b)),
        PlanNode::Select(
            NodePropEq(1, "id", Value(1)),
            PlanNode::Union(knows_a, PlanNode::Join(knows_a, knows_a))),
        PlanNode::Project(
            {std::nullopt, std::nullopt, 1},
            PlanNode::OrderBy(
                OrderKey::kPGA,
                PlanNode::GroupBy(
                    GroupKey::kST,
                    PlanNode::Recursive(PathSemantics::kTrail, knows_a)))),
        PlanNode::Project(
            {std::nullopt, std::nullopt, std::nullopt},
            PlanNode::GroupBy(
                GroupKey::kSL,
                PlanNode::Recursive(PathSemantics::kSimple, knows_b))),
    };
    for (size_t i = 0; i < plans.size(); ++i) {
      auto before = Evaluate(g, plans[i]);
      auto after = Evaluate(g, Optimize(plans[i]).plan);
      ASSERT_TRUE(before.ok() && after.ok()) << "seed " << seed;
      EXPECT_EQ(*before, *after) << "seed " << seed << " plan " << i;
    }
  }
}

}  // namespace
}  // namespace pathalg

// Tests for the logical-plan layer: construction, validation (typing
// rules), static length bounds, structural equality, printers, and the
// evaluator reproducing the paper's Figures 2–5 on the Figure 1 graph.

#include <gtest/gtest.h>

#include "plan/evaluator.h"
#include "plan/plan.h"
#include "workload/figure1.h"

namespace pathalg {
namespace {

PlanPtr KnowsEdgesPlan() {
  return PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan());
}

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeFigure1Graph(&ids_); }
  PropertyGraph g_;
  Figure1Ids ids_;
};

TEST_F(PlanTest, ValidateAcceptsWellTypedPlans) {
  PlanPtr plan = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kA,
          PlanNode::GroupBy(GroupKey::kST,
                            PlanNode::Recursive(PathSemantics::kTrail,
                                                KnowsEdgesPlan()))));
  EXPECT_TRUE(plan->Validate().ok());
}

TEST_F(PlanTest, ValidateRejectsSpaceWherePathsExpected) {
  // ⋈ over a solution space is ill-typed.
  PlanPtr bad = PlanNode::Join(
      PlanNode::GroupBy(GroupKey::kST, PlanNode::EdgesScan()),
      PlanNode::EdgesScan());
  EXPECT_TRUE(bad->Validate().IsInvalidArgument());
  // ϕ over a solution space is ill-typed.
  PlanPtr bad2 = PlanNode::Recursive(
      PathSemantics::kWalk,
      PlanNode::GroupBy(GroupKey::kST, PlanNode::EdgesScan()));
  EXPECT_TRUE(bad2->Validate().IsInvalidArgument());
}

TEST_F(PlanTest, ValidateRejectsPathsWhereSpaceExpected) {
  // τ and π need a solution space input.
  EXPECT_TRUE(PlanNode::OrderBy(OrderKey::kA, PlanNode::EdgesScan())
                  ->Validate()
                  .IsInvalidArgument());
  EXPECT_TRUE(PlanNode::Project({std::nullopt, std::nullopt, std::nullopt},
                                PlanNode::EdgesScan())
                  ->Validate()
                  .IsInvalidArgument());
}

TEST_F(PlanTest, ValidateRejectsNullSelectCondition) {
  PlanPtr bad = PlanNode::Select(nullptr, PlanNode::EdgesScan());
  EXPECT_TRUE(bad->Validate().IsInvalidArgument());
}

TEST_F(PlanTest, LengthBounds) {
  EXPECT_EQ(PlanNode::NodesScan()->Bounds().min, 0u);
  EXPECT_EQ(*PlanNode::NodesScan()->Bounds().max, 0u);
  EXPECT_EQ(PlanNode::EdgesScan()->Bounds().min, 1u);
  EXPECT_EQ(*PlanNode::EdgesScan()->Bounds().max, 1u);

  PlanPtr join = PlanNode::Join(PlanNode::EdgesScan(), PlanNode::EdgesScan());
  EXPECT_EQ(join->Bounds().min, 2u);
  EXPECT_EQ(*join->Bounds().max, 2u);

  PlanPtr uni = PlanNode::Union(PlanNode::NodesScan(), join);
  EXPECT_EQ(uni->Bounds().min, 0u);
  EXPECT_EQ(*uni->Bounds().max, 2u);

  PlanPtr phi = PlanNode::Recursive(PathSemantics::kTrail, KnowsEdgesPlan());
  EXPECT_EQ(phi->Bounds().min, 1u);
  EXPECT_FALSE(phi->Bounds().max.has_value());

  // ϕ over zero-length-only input stays bounded.
  PlanPtr phi0 =
      PlanNode::Recursive(PathSemantics::kWalk, PlanNode::NodesScan());
  EXPECT_EQ(*phi0->Bounds().max, 0u);

  PlanPtr isect = PlanNode::Intersect(uni, PlanNode::EdgesScan());
  EXPECT_EQ(isect->Bounds().min, 1u);
  EXPECT_EQ(*isect->Bounds().max, 1u);
}

TEST_F(PlanTest, StructuralEquality) {
  PlanPtr a = PlanNode::Recursive(PathSemantics::kTrail, KnowsEdgesPlan());
  PlanPtr b = PlanNode::Recursive(PathSemantics::kTrail, KnowsEdgesPlan());
  PlanPtr c = PlanNode::Recursive(PathSemantics::kSimple, KnowsEdgesPlan());
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_FALSE(a->Equals(*KnowsEdgesPlan()));

  PlanPtr p1 = PlanNode::Project({1, std::nullopt, std::nullopt},
                                 PlanNode::GroupBy(GroupKey::kST, a));
  PlanPtr p2 = PlanNode::Project({1, std::nullopt, std::nullopt},
                                 PlanNode::GroupBy(GroupKey::kST, b));
  PlanPtr p3 = PlanNode::Project({2, std::nullopt, std::nullopt},
                                 PlanNode::GroupBy(GroupKey::kST, b));
  EXPECT_TRUE(p1->Equals(*p2));
  EXPECT_FALSE(p1->Equals(*p3));
}

TEST_F(PlanTest, AlgebraPrinter) {
  PlanPtr plan = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kA,
          PlanNode::GroupBy(GroupKey::kST,
                            PlanNode::Recursive(PathSemantics::kTrail,
                                                KnowsEdgesPlan()))));
  EXPECT_EQ(plan->ToAlgebraString(),
            "π(*,*,1)(τ[A](γ[ST](ϕ[TRAIL](σ[label(edge(1)) = \"Knows\"]"
            "(Edges(G))))))");
}

TEST_F(PlanTest, TreePrinter) {
  PlanPtr plan = PlanNode::Union(
      PlanNode::Recursive(PathSemantics::kSimple, KnowsEdgesPlan()),
      PlanNode::NodesScan());
  std::string tree = plan->ToTreeString();
  EXPECT_EQ(tree,
            "Union\n"
            "  Recursive (SIMPLE)\n"
            "    Select (label(edge(1)) = \"Knows\")\n"
            "      Edges(G)\n"
            "  Nodes(G)\n");
}

TEST_F(PlanTest, ClosureSourceIsPrintedAndCompared) {
  PlanPtr sourced = PlanNode::Recursive(
      {PathSemantics::kShortest, FirstPropEq("name", Value("person3"))},
      KnowsEdgesPlan());
  EXPECT_EQ(sourced->ToAlgebraString(),
            "ϕ[SHORTEST; first.name = \"person3\"](σ[label(edge(1)) = "
            "\"Knows\"](Edges(G)))");
  EXPECT_EQ(sourced->ToTreeString(),
            "Recursive (SHORTEST; first.name = \"person3\")\n"
            "  Select (label(edge(1)) = \"Knows\")\n"
            "    Edges(G)\n");
  PlanPtr same = PlanNode::Recursive(
      {PathSemantics::kShortest, FirstPropEq("name", Value("person3"))},
      KnowsEdgesPlan());
  PlanPtr other_source = PlanNode::Recursive(
      {PathSemantics::kShortest, FirstPropEq("name", Value("person4"))},
      KnowsEdgesPlan());
  PlanPtr unsourced =
      PlanNode::Recursive(PathSemantics::kShortest, KnowsEdgesPlan());
  EXPECT_TRUE(sourced->Equals(*same));
  EXPECT_FALSE(sourced->Equals(*other_source));
  EXPECT_FALSE(sourced->Equals(*unsourced));
  EXPECT_FALSE(unsourced->Equals(*sourced));
  EXPECT_EQ(unsourced->ToAlgebraString(),
            "ϕ[SHORTEST](σ[label(edge(1)) = \"Knows\"](Edges(G)))");
}

// ---------------------------------------------------------------------------
// Evaluator: the paper's figures end-to-end.
// ---------------------------------------------------------------------------

TEST_F(PlanTest, EvaluateFigure3CorePlan) {
  // Figure 3: σ_{first.name="Moe"}(σK(Se) ∪ (σK(Se) ⋈ σK(Se))).
  PlanPtr plan = PlanNode::Select(
      FirstPropEq("name", Value("Moe")),
      PlanNode::Union(KnowsEdgesPlan(),
                      PlanNode::Join(KnowsEdgesPlan(), KnowsEdgesPlan())));
  auto r = Evaluate(g_, plan);
  ASSERT_TRUE(r.ok());
  PathSet expected;
  expected.Insert(Path({ids_.n1, ids_.n2}, {ids_.e1}));
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2}));
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n4}, {ids_.e1, ids_.e4}));
  EXPECT_EQ(*r, expected);
}

TEST_F(PlanTest, EvaluateFigure2RecursivePlanUnderSimple) {
  // Figure 2 with ϕSimple: the paper states the result is exactly
  //   path1 = (n1, e1, n2, e4, n4)
  //   path2 = (n1, e8, n6, e11, n3, e7, n7, e10, n4).
  PlanPtr likes =
      PlanNode::Select(EdgeLabelEq(1, "Likes"), PlanNode::EdgesScan());
  PlanPtr hc =
      PlanNode::Select(EdgeLabelEq(1, "Has_creator"), PlanNode::EdgesScan());
  PlanPtr plan = PlanNode::Select(
      Condition::And(FirstPropEq("name", Value("Moe")),
                     LastPropEq("name", Value("Apu"))),
      PlanNode::Union(
          PlanNode::Recursive(PathSemantics::kSimple, KnowsEdgesPlan()),
          PlanNode::Recursive(PathSemantics::kSimple,
                              PlanNode::Join(likes, hc))));
  auto r = Evaluate(g_, plan);
  ASSERT_TRUE(r.ok());
  PathSet expected;
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n4}, {ids_.e1, ids_.e4}));
  expected.Insert(Path({ids_.n1, ids_.n6, ids_.n3, ids_.n7, ids_.n4},
                       {ids_.e8, ids_.e11, ids_.e7, ids_.e10}));
  EXPECT_EQ(*r, expected);
}

TEST_F(PlanTest, EvaluateFigure4KleeneStarPlan) {
  // Figure 4's right branch: ϕ((σLikes(E) ⋈ σHC(E))) ∪ Nodes(G) — the
  // Kleene star (Likes/Has_creator)* under walk semantics. On Figure 1 the
  // Likes/Has_creator composition is a 6-cycle, so walks diverge; with
  // Simple they don't.
  PlanPtr likes =
      PlanNode::Select(EdgeLabelEq(1, "Likes"), PlanNode::EdgesScan());
  PlanPtr hc =
      PlanNode::Select(EdgeLabelEq(1, "Has_creator"), PlanNode::EdgesScan());
  PlanPtr star = PlanNode::Union(
      PlanNode::Recursive(PathSemantics::kSimple, PlanNode::Join(likes, hc)),
      PlanNode::NodesScan());
  auto r = Evaluate(g_, star);
  ASSERT_TRUE(r.ok());
  // Zero-length paths for all 7 nodes are present (Kleene star matches ε).
  for (NodeId n = 0; n < g_.num_nodes(); ++n) {
    EXPECT_TRUE(r->Contains(Path::SingleNode(n)));
  }
  // …plus the simple (Likes/Has_creator)+ compositions.
  EXPECT_TRUE(r->Contains(Path({ids_.n1, ids_.n6, ids_.n3, ids_.n7, ids_.n4},
                               {ids_.e8, ids_.e11, ids_.e7, ids_.e10})));
}

TEST_F(PlanTest, EvaluateFigure5Pipeline) {
  // π(*,*,1)(τA(γST(ϕTrail(σKnows(Edges))))) — ANY SHORTEST TRAIL.
  PlanPtr plan = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kA,
          PlanNode::GroupBy(GroupKey::kST,
                            PlanNode::Recursive(PathSemantics::kTrail,
                                                KnowsEdgesPlan()))));
  auto r = Evaluate(g_, plan);
  ASSERT_TRUE(r.ok());
  // One shortest trail per (s,t) pair. The full trail set has 9 pairs (the
  // paper's Table 5 walkthrough shows the 7 pairs covered by Table 3).
  EXPECT_EQ(r->size(), 9u);
  // The paper's Fig. 5 output paths are all present:
  for (const Path& p : std::vector<Path>{
           Path({ids_.n1, ids_.n2}, {ids_.e1}),
           Path({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2}),
           Path({ids_.n1, ids_.n2, ids_.n4}, {ids_.e1, ids_.e4}),
           Path({ids_.n2, ids_.n3, ids_.n2}, {ids_.e2, ids_.e3}),
           Path({ids_.n2, ids_.n3}, {ids_.e2}),
           Path({ids_.n2, ids_.n4}, {ids_.e4}),
           Path({ids_.n3, ids_.n2, ids_.n4}, {ids_.e3, ids_.e4})}) {
    EXPECT_TRUE(r->Contains(p)) << p.ToString(g_);
  }
}

TEST_F(PlanTest, EvaluateSpaceTypedRoot) {
  PlanPtr gamma = PlanNode::GroupBy(GroupKey::kST, KnowsEdgesPlan());
  // Evaluate() refuses space-typed roots; EvaluateToSpace handles them.
  EXPECT_TRUE(Evaluate(g_, gamma).status().IsInvalidArgument());
  auto space = EvaluateToSpace(g_, gamma);
  ASSERT_TRUE(space.ok());
  EXPECT_EQ(space->num_paths(), 4u);
  EXPECT_EQ(space->num_partitions(), 4u);
  // And the reverse mismatch:
  EXPECT_TRUE(
      EvaluateToSpace(g_, KnowsEdgesPlan()).status().IsInvalidArgument());
}

TEST_F(PlanTest, EvaluatePropagatesPhiBudgetErrors) {
  PlanPtr walk = PlanNode::Recursive(PathSemantics::kWalk, KnowsEdgesPlan());
  EvalOptions opts;
  opts.limits.max_path_length = 8;
  opts.limits.truncate = false;
  EXPECT_TRUE(Evaluate(g_, walk, opts).status().IsResourceExhausted());
  opts.limits.truncate = true;
  EXPECT_TRUE(Evaluate(g_, walk, opts).ok());
}

TEST_F(PlanTest, EvaluateNullPlanFails) {
  EXPECT_TRUE(Evaluate(g_, nullptr).status().IsInvalidArgument());
}

TEST_F(PlanTest, EvaluateWithNaiveEngineMatchesOptimizedEngine) {
  // EvalOptions.engine threads through to every ϕ in the plan.
  PlanPtr plan = PlanNode::Project(
      {std::nullopt, std::nullopt, 1},
      PlanNode::OrderBy(
          OrderKey::kA,
          PlanNode::GroupBy(GroupKey::kST,
                            PlanNode::Recursive(PathSemantics::kTrail,
                                                KnowsEdgesPlan()))));
  EvalOptions naive;
  naive.engine = PhiEngine::kNaive;
  EvalOptions optimized;
  optimized.engine = PhiEngine::kOptimized;
  auto a = Evaluate(g_, plan, naive);
  auto b = Evaluate(g_, plan, optimized);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(PlanTest, IntersectAndDifferencePlans) {
  PlanPtr knows_or_likes = PlanNode::Union(
      KnowsEdgesPlan(),
      PlanNode::Select(EdgeLabelEq(1, "Likes"), PlanNode::EdgesScan()));
  PlanPtr diff = PlanNode::Difference(PlanNode::EdgesScan(), knows_or_likes);
  auto r = Evaluate(g_, diff);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);  // the 3 Has_creator edges
  PlanPtr isect = PlanNode::Intersect(PlanNode::EdgesScan(), knows_or_likes);
  auto r2 = Evaluate(g_, isect);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 8u);
}

}  // namespace
}  // namespace pathalg

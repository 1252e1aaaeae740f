// Tests for the ρ (whole-path restrictor) extension operator and the
// optimizer rules added around it: restrict-elim (semantics lattice),
// join-identity, recursive-idempotent, and σ pushdown through ∩ / − / ρ.

#include <gtest/gtest.h>

#include <algorithm>

#include "algebra/core_ops.h"
#include "path/path_ops.h"
#include "plan/evaluator.h"
#include "plan/optimizer.h"
#include "workload/figure1.h"

namespace pathalg {
namespace {

PlanPtr KnowsEdgesPlan() {
  return PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan());
}

bool Applied(const OptimizeResult& r, std::string_view rule) {
  return std::find(r.applied.begin(), r.applied.end(), rule) !=
         r.applied.end();
}

class RestrictTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeFigure1Graph(&ids_); }
  PropertyGraph g_;
  Figure1Ids ids_;
};

TEST_F(RestrictTest, RestrictPathsFiltersBySemantics) {
  PathSet walks = *Recursive(
      Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Knows")),
      PathSemantics::kWalk, {.max_path_length = 4, .truncate = true});
  EXPECT_EQ(walks.size(), 18u);
  EXPECT_EQ(RestrictPaths(walks, PathSemantics::kWalk), walks);
  PathSet trails = RestrictPaths(walks, PathSemantics::kTrail);
  for (PathRef p : trails) EXPECT_TRUE(p.IsTrail());
  EXPECT_EQ(trails.size(), 12u);  // all 12 trails have length ≤ 4
  PathSet acyclic = RestrictPaths(walks, PathSemantics::kAcyclic);
  EXPECT_EQ(acyclic.size(), 7u);
  PathSet simple = RestrictPaths(walks, PathSemantics::kSimple);
  EXPECT_EQ(simple.size(), 9u);
  PathSet shortest = RestrictPaths(walks, PathSemantics::kShortest);
  EXPECT_EQ(shortest.size(), 9u);
}

TEST_F(RestrictTest, RestrictPlanNodeEvaluates) {
  // ρTrail over a bounded ϕWalk = the length-bounded trail answer.
  PlanPtr plan = PlanNode::Restrict(
      PathSemantics::kTrail,
      PlanNode::Recursive(PathSemantics::kWalk, KnowsEdgesPlan()));
  EvalOptions opts;
  opts.limits.max_path_length = 4;
  opts.limits.truncate = true;
  auto r = Evaluate(g_, plan, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 12u);
  EXPECT_EQ(plan->ToAlgebraString(),
            "ρ[TRAIL](ϕ[WALK](σ[label(edge(1)) = \"Knows\"](Edges(G))))");
  EXPECT_NE(plan->ToTreeString().find("Restrict (TRAIL)"),
            std::string::npos);
}

TEST_F(RestrictTest, RestrictValidatesTyping) {
  PlanPtr bad = PlanNode::Restrict(
      PathSemantics::kTrail,
      PlanNode::GroupBy(GroupKey::kST, PlanNode::EdgesScan()));
  EXPECT_TRUE(bad->Validate().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Optimizer rules.
// ---------------------------------------------------------------------------
TEST_F(RestrictTest, RestrictElimOnImpliedSemantics) {
  // ρTrail(ϕAcyclic(x)) → ϕAcyclic(x): acyclic paths never repeat edges.
  PlanPtr plan = PlanNode::Restrict(
      PathSemantics::kTrail,
      PlanNode::Recursive(PathSemantics::kAcyclic, KnowsEdgesPlan()));
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "restrict-elim"));
  EXPECT_EQ(opt.plan->kind(), PlanKind::kRecursive);

  // ρSimple(ϕAcyclic(x)) → eliminated; ρAcyclic(ϕSimple(x)) → kept.
  EXPECT_TRUE(Applied(
      Optimize(PlanNode::Restrict(
          PathSemantics::kSimple,
          PlanNode::Recursive(PathSemantics::kAcyclic, KnowsEdgesPlan()))),
      "restrict-elim"));
  OptimizeResult kept = Optimize(PlanNode::Restrict(
      PathSemantics::kAcyclic,
      PlanNode::Recursive(PathSemantics::kSimple, KnowsEdgesPlan())));
  EXPECT_EQ(kept.plan->kind(), PlanKind::kRestrict);
}

TEST_F(RestrictTest, RestrictElimKeptIsNotANoop) {
  // ρAcyclic over ϕSimple genuinely removes closed cycles — verify the
  // optimizer was right to keep it.
  PlanPtr plan = PlanNode::Restrict(
      PathSemantics::kAcyclic,
      PlanNode::Recursive(PathSemantics::kSimple, KnowsEdgesPlan()));
  auto restricted = Evaluate(g_, plan);
  auto unrestricted = Evaluate(
      g_, PlanNode::Recursive(PathSemantics::kSimple, KnowsEdgesPlan()));
  ASSERT_TRUE(restricted.ok() && unrestricted.ok());
  EXPECT_EQ(restricted->size(), 7u);
  EXPECT_EQ(unrestricted->size(), 9u);
}

TEST_F(RestrictTest, RestrictWalkIsIdentity) {
  PlanPtr plan = PlanNode::Restrict(
      PathSemantics::kWalk,
      PlanNode::Join(KnowsEdgesPlan(), KnowsEdgesPlan()));
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "restrict-elim"));
  EXPECT_EQ(opt.plan->kind(), PlanKind::kJoin);
}

TEST_F(RestrictTest, RestrictOverAtomsEliminated) {
  // Single edges satisfy every restrictor (but not ρShortest, which is
  // set-level: parallel edges between a pair are all minimal, yet a
  // 0-length path could displace them — only safe without shortest).
  PlanPtr plan =
      PlanNode::Restrict(PathSemantics::kSimple, KnowsEdgesPlan());
  EXPECT_TRUE(Applied(Optimize(plan), "restrict-elim"));
  PlanPtr shortest =
      PlanNode::Restrict(PathSemantics::kShortest,
                         PlanNode::Union(PlanNode::NodesScan(),
                                         PlanNode::EdgesScan()));
  EXPECT_FALSE(Applied(Optimize(shortest), "restrict-elim"));
}

TEST_F(RestrictTest, RestrictAcyclicOverAtomsKeptBecauseOfSelfLoops) {
  // ρAcyclic over Edges(G) is NOT a no-op: self-loop edges are length-1
  // paths that repeat their node.
  GraphBuilder b;
  NodeId n = b.AddNode("N");
  NodeId m = b.AddNode("N");
  ASSERT_TRUE(b.AddEdge(n, n, "a").ok());  // self-loop
  ASSERT_TRUE(b.AddEdge(n, m, "a").ok());
  PropertyGraph g = b.Build();
  PlanPtr plan =
      PlanNode::Restrict(PathSemantics::kAcyclic, PlanNode::EdgesScan());
  OptimizeResult opt = Optimize(plan);
  EXPECT_FALSE(Applied(opt, "restrict-elim"));
  auto r = Evaluate(g, opt.plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);  // only (n,e2,m); the self-loop is filtered
  // ρTrail / ρSimple over atoms remain eliminable and correct with the
  // self-loop present.
  for (PathSemantics sem :
       {PathSemantics::kTrail, PathSemantics::kSimple}) {
    PlanPtr p2 = PlanNode::Restrict(sem, PlanNode::EdgesScan());
    OptimizeResult o2 = Optimize(p2);
    EXPECT_TRUE(Applied(o2, "restrict-elim")) << PathSemanticsToString(sem);
    auto before = Evaluate(g, p2);
    auto after = Evaluate(g, o2.plan);
    ASSERT_TRUE(before.ok() && after.ok());
    EXPECT_EQ(*before, *after) << PathSemanticsToString(sem);
  }
}

TEST_F(RestrictTest, JoinIdentityWithNodes) {
  PlanPtr plan = PlanNode::Join(KnowsEdgesPlan(), PlanNode::NodesScan());
  OptimizeResult opt = Optimize(plan);
  EXPECT_TRUE(Applied(opt, "join-identity"));
  EXPECT_TRUE(opt.plan->Equals(*KnowsEdgesPlan()));
  PlanPtr plan2 = PlanNode::Join(PlanNode::NodesScan(), KnowsEdgesPlan());
  EXPECT_TRUE(Optimize(plan2).plan->Equals(*KnowsEdgesPlan()));
  // And it is actually an identity:
  auto a = Evaluate(g_, plan);
  auto b = Evaluate(g_, KnowsEdgesPlan());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(RestrictTest, RecursiveIdempotent) {
  for (PathSemantics sem :
       {PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple, PathSemantics::kShortest}) {
    PlanPtr twice = PlanNode::Recursive(
        sem, PlanNode::Recursive(sem, KnowsEdgesPlan()));
    OptimizeResult opt = Optimize(twice);
    EXPECT_TRUE(Applied(opt, "recursive-idempotent"))
        << PathSemanticsToString(sem);
    // Semantics check: evaluating ϕ twice equals once.
    auto once = Evaluate(g_, PlanNode::Recursive(sem, KnowsEdgesPlan()));
    auto double_eval = Evaluate(g_, twice);
    ASSERT_TRUE(once.ok() && double_eval.ok());
    EXPECT_EQ(*once, *double_eval) << PathSemanticsToString(sem);
  }
  // Different semantics do not merge.
  PlanPtr mixed = PlanNode::Recursive(
      PathSemantics::kTrail,
      PlanNode::Recursive(PathSemantics::kAcyclic, KnowsEdgesPlan()));
  EXPECT_FALSE(Applied(Optimize(mixed), "recursive-idempotent"));
}

TEST_F(RestrictTest, PushdownThroughIntersectAndDifference) {
  auto likes =
      PlanNode::Select(EdgeLabelEq(1, "Likes"), PlanNode::EdgesScan());
  PlanPtr isect = PlanNode::Select(
      FirstLabelEq("Person"),
      PlanNode::Intersect(PlanNode::EdgesScan(), likes));
  OptimizeResult opt = Optimize(isect);
  EXPECT_TRUE(Applied(opt, "select-pushdown"));
  EXPECT_EQ(opt.plan->kind(), PlanKind::kIntersect);
  auto before = Evaluate(g_, isect);
  auto after = Evaluate(g_, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);

  PlanPtr diff = PlanNode::Select(
      FirstLabelEq("Person"),
      PlanNode::Difference(PlanNode::EdgesScan(), likes));
  OptimizeResult opt2 = Optimize(diff);
  EXPECT_EQ(opt2.plan->kind(), PlanKind::kDifference);
  auto before2 = Evaluate(g_, diff);
  auto after2 = Evaluate(g_, opt2.plan);
  ASSERT_TRUE(before2.ok() && after2.ok());
  EXPECT_EQ(*before2, *after2);
}

TEST_F(RestrictTest, PushdownThroughNonShortestRestrict) {
  PlanPtr plan = PlanNode::Select(
      FirstPropEq("name", Value("Moe")),
      PlanNode::Restrict(
          PathSemantics::kTrail,
          PlanNode::Join(KnowsEdgesPlan(), KnowsEdgesPlan())));
  OptimizeResult opt = Optimize(plan);
  // σ moved below ρ (and further into the join).
  EXPECT_EQ(opt.plan->kind(), PlanKind::kRestrict);
  auto before = Evaluate(g_, plan);
  auto after = Evaluate(g_, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);

  // ρShortest blocks the pushdown: σ then minima ≠ minima then σ.
  PlanPtr blocked = PlanNode::Select(
      LenEq(2), PlanNode::Restrict(
                    PathSemantics::kShortest,
                    PlanNode::Join(KnowsEdgesPlan(), KnowsEdgesPlan())));
  OptimizeResult opt2 = Optimize(blocked);
  EXPECT_EQ(opt2.plan->kind(), PlanKind::kSelect);
  EXPECT_EQ(opt2.plan->child()->kind(), PlanKind::kRestrict);
}

}  // namespace
}  // namespace pathalg

// Tests for the cost model (stats collection, selectivity estimation,
// plan-cost ranking) and the cost-based join-reassociation rule.

#include <gtest/gtest.h>

#include <algorithm>

#include "plan/cost.h"
#include "plan/evaluator.h"
#include "plan/optimizer.h"
#include "workload/figure1.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

bool Applied(const OptimizeResult& r, std::string_view rule) {
  return std::find(r.applied.begin(), r.applied.end(), rule) !=
         r.applied.end();
}

TEST(GraphStatsTest, CollectCountsLabels) {
  PropertyGraph g = MakeFigure1Graph();
  GraphStats stats = GraphStats::Collect(g);
  EXPECT_EQ(stats.num_nodes, 7u);
  EXPECT_EQ(stats.num_edges, 11u);
  EXPECT_EQ(stats.edge_label_counts.at("Knows"), 4u);
  EXPECT_EQ(stats.edge_label_counts.at("Likes"), 4u);
  EXPECT_EQ(stats.edge_label_counts.at("Has_creator"), 3u);
  EXPECT_EQ(stats.node_label_counts.at("Person"), 4u);
  EXPECT_EQ(stats.node_label_counts.at("Message"), 3u);
}

TEST(CostTest, SelectivityUsesLabelHistograms) {
  GraphStats stats = GraphStats::Collect(MakeFigure1Graph());
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*EdgeLabelEq(1, "Knows"), stats),
                   4.0 / 11.0);
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(*EdgeLabelEq(1, "Has_creator"), stats),
      3.0 / 11.0);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*EdgeLabelEq(1, "NoSuch"), stats),
                   0.0);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*FirstLabelEq("Person"), stats),
                   4.0 / 7.0);
  // Endpoint property lookup ≈ one node out of N.
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(*FirstPropEq("name", Value("Moe")), stats),
      1.0 / 7.0);
}

TEST(CostTest, BooleanCombinators) {
  GraphStats stats = GraphStats::Collect(MakeFigure1Graph());
  auto knows = EdgeLabelEq(1, "Knows");       // 4/11
  auto person = FirstLabelEq("Person");       // 4/7
  double sk = 4.0 / 11.0, sp = 4.0 / 7.0;
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(*Condition::And(knows, person), stats), sk * sp);
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(*Condition::Or(knows, person), stats),
      sk + sp - sk * sp);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*Condition::Not(knows), stats),
                   1.0 - sk);
}

TEST(CostTest, CardinalityIsExactForScansAndProportionalForSelects) {
  PropertyGraph g = MakeFigure1Graph();
  GraphStats stats = GraphStats::Collect(g);
  EXPECT_DOUBLE_EQ(EstimateCost(PlanNode::NodesScan(), stats).cardinality,
                   7.0);
  EXPECT_DOUBLE_EQ(EstimateCost(PlanNode::EdgesScan(), stats).cardinality,
                   11.0);
  PlanPtr knows =
      PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan());
  // 11 * 4/11 = 4 — exact here because labels partition the edges.
  EXPECT_DOUBLE_EQ(EstimateCost(knows, stats).cardinality, 4.0);
}

TEST(CostTest, SelectiveFilterReducesEstimatedCost) {
  GraphStats stats = GraphStats::Collect(MakeFigure1Graph());
  PlanPtr knows =
      PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan());
  PlanPtr filtered_join = PlanNode::Join(
      PlanNode::Select(FirstPropEq("name", Value("Moe")), knows), knows);
  PlanPtr unfiltered_join = PlanNode::Join(knows, knows);
  EXPECT_LT(EstimateCost(filtered_join, stats).cardinality,
            EstimateCost(unfiltered_join, stats).cardinality);
  // A ϕ dominates the cost of its input.
  PlanPtr phi = PlanNode::Recursive(PathSemantics::kTrail, knows);
  EXPECT_GT(EstimateCost(phi, stats).cost,
            EstimateCost(knows, stats).cost);
}

TEST(CostTest, SourcedClosureEstimatesLikeTheSelectAboveIt) {
  // select-into-closure turns σ_src(ϕ(R)) into ϕ[src](R); the estimate
  // must keep the cardinality and count the smaller ϕ as cheaper.
  GraphStats stats = GraphStats::Collect(MakeFigure1Graph());
  PlanPtr knows =
      PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan());
  for (PathSemantics sem : {PathSemantics::kTrail, PathSemantics::kShortest}) {
    ConditionPtr src = Condition::And(FirstPropEq("name", Value("Moe")),
                                      FirstLabelEq("Person"));
    PlanPtr above = PlanNode::Select(src, PlanNode::Recursive(sem, knows));
    PlanPtr inside = PlanNode::Recursive({sem, src}, knows);
    const CostEstimate a = EstimateCost(above, stats);
    const CostEstimate b = EstimateCost(inside, stats);
    EXPECT_DOUBLE_EQ(a.cardinality, b.cardinality);
    EXPECT_LT(b.cardinality,
              EstimateCost(PlanNode::Recursive(sem, knows), stats).cardinality);
    EXPECT_LT(b.cost, a.cost);
  }
}

TEST(CostTest, NullPlanIsFree) {
  GraphStats stats;
  EXPECT_DOUBLE_EQ(EstimateCost(nullptr, stats).cost, 0.0);
}

TEST(JoinReassociationTest, PicksCheaperAssociation) {
  // Skewed labels: "rare" has 2 edges, "bulk" has many. The plan
  // (bulk ⋈ bulk) ⋈ rare has a huge intermediate; bulk ⋈ (bulk ⋈ rare)
  // is cheaper under the model.
  GraphBuilder b;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) nodes.push_back(b.AddNode("N"));
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 3; ++j) {
      (void)b.AddEdge(nodes[i], nodes[i + 1], "bulk");
    }
  }
  (void)b.AddEdge(nodes[1], nodes[2], "rare");
  (void)b.AddEdge(nodes[4], nodes[5], "rare");
  PropertyGraph g = b.Build();
  GraphStats stats = GraphStats::Collect(g);

  PlanPtr bulk =
      PlanNode::Select(EdgeLabelEq(1, "bulk"), PlanNode::EdgesScan());
  PlanPtr rare =
      PlanNode::Select(EdgeLabelEq(1, "rare"), PlanNode::EdgesScan());
  PlanPtr left_heavy = PlanNode::Join(PlanNode::Join(bulk, bulk), rare);

  OptimizerOptions opts;
  opts.stats = &stats;
  OptimizeResult opt = Optimize(left_heavy, opts);
  EXPECT_TRUE(Applied(opt, "join-reassociation"));
  // The rewrite chose bulk ⋈ (bulk ⋈ rare).
  ASSERT_EQ(opt.plan->kind(), PlanKind::kJoin);
  EXPECT_EQ(opt.plan->child(1)->kind(), PlanKind::kJoin);
  // Results are preserved (associativity).
  auto before = Evaluate(g, left_heavy);
  auto after = Evaluate(g, opt.plan);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(*before, *after);
}

TEST(JoinReassociationTest, NoStatsNoRewrite) {
  PlanPtr knows = PlanNode::Select(EdgeLabelEq(1, "bulk"),
                                   PlanNode::EdgesScan());
  PlanPtr plan = PlanNode::Join(PlanNode::Join(knows, knows), knows);
  OptimizeResult opt = Optimize(plan);  // default: stats == nullptr
  EXPECT_FALSE(Applied(opt, "join-reassociation"));
}

TEST(JoinReassociationTest, StableWhenAlreadyOptimal) {
  // An already-cheap association is left alone (strict improvement only),
  // and optimization reaches a fixpoint (no oscillation).
  PropertyGraph g = MakeRandomGraph(8, 20, {"a"}, 3);
  GraphStats stats = GraphStats::Collect(g);
  PlanPtr a = PlanNode::Select(EdgeLabelEq(1, "a"), PlanNode::EdgesScan());
  PlanPtr balanced = PlanNode::Join(a, PlanNode::Join(a, a));
  OptimizerOptions opts;
  opts.stats = &stats;
  OptimizeResult once = Optimize(balanced, opts);
  OptimizeResult twice = Optimize(once.plan, opts);
  EXPECT_TRUE(once.plan->Equals(*twice.plan));
}

}  // namespace
}  // namespace pathalg

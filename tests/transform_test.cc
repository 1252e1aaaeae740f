// Tests for graph transforms (reverse graph, label subgraph) and their use
// for inverse-label (two-way) RPQs, plus the path functions implementing
// GQL's group variables (§2.3).

#include <gtest/gtest.h>

#include "algebra/core_ops.h"
#include "algebra/recursive.h"
#include "baseline/automaton_eval.h"
#include "graph/transform.h"
#include "path/path_functions.h"
#include "path/path_ops.h"
#include "plan/evaluator.h"
#include "regex/compile.h"
#include "regex/parser.h"
#include "workload/figure1.h"

namespace pathalg {
namespace {

class TransformTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeFigure1Graph(&ids_); }
  PropertyGraph g_;
  Figure1Ids ids_;
};

TEST_F(TransformTest, ReverseGraphFlipsEveryEdge) {
  PropertyGraph rev = ReverseGraph(g_);
  ASSERT_EQ(rev.num_nodes(), g_.num_nodes());
  ASSERT_EQ(rev.num_edges(), g_.num_edges());
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    EXPECT_EQ(rev.Source(e), g_.Target(e));
    EXPECT_EQ(rev.Target(e), g_.Source(e));
    EXPECT_EQ(rev.EdgeLabel(e), g_.EdgeLabel(e));
    EXPECT_EQ(rev.EdgeName(e), g_.EdgeName(e));
  }
  // Properties and names survive.
  EXPECT_EQ(*rev.NodeProperty(ids_.n1, "name"), Value("Moe"));
  EXPECT_EQ(rev.NodeName(ids_.n4), "n4");
  // Double reversal is the identity on ρ.
  PropertyGraph back = ReverseGraph(rev);
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    EXPECT_EQ(back.Source(e), g_.Source(e));
    EXPECT_EQ(back.Target(e), g_.Target(e));
  }
}

TEST_F(TransformTest, InverseRpqViaReverseGraph) {
  // "Who is known (transitively) BY Apu-reaching people?" — an inverse
  // Knows+ query: evaluate Knows+ on the reverse graph from n4.
  PropertyGraph rev = ReverseGraph(g_);
  CompileOptions copts;
  copts.semantics = PathSemantics::kAcyclic;
  PlanPtr plan = CompileRpq(*ParseRegex(":Knows+"), copts,
                            FirstPropEq("name", Value("Apu")));
  auto r = Evaluate(rev, plan);
  ASSERT_TRUE(r.ok());
  // Forward acyclic Knows+ paths INTO n4: (n2,e4,n4), (n1,e1,n2,e4,n4),
  // (n3,e3,n2,e4,n4) — reversed, they start at n4.
  EXPECT_EQ(r->size(), 3u);
  for (PathRef p : *r) {
    EXPECT_EQ(p.First(), ids_.n4);
  }
}

TEST_F(TransformTest, SubgraphByEdgeLabels) {
  PropertyGraph knows_only = SubgraphByEdgeLabels(g_, {"Knows"});
  EXPECT_EQ(knows_only.num_nodes(), 7u);
  EXPECT_EQ(knows_only.num_edges(), 4u);
  PropertyGraph social = SubgraphByEdgeLabels(g_, {"Likes", "Has_creator"});
  EXPECT_EQ(social.num_edges(), 7u);
  PropertyGraph none = SubgraphByEdgeLabels(g_, {"NoSuch"});
  EXPECT_EQ(none.num_edges(), 0u);
  EXPECT_EQ(none.num_nodes(), 7u);

  // The ϕ answer over the subgraph equals the σ-filtered answer over G.
  auto sub_answer =
      Recursive(EdgesOf(knows_only), PathSemantics::kTrail);
  auto full_answer = Recursive(
      Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Knows")),
      PathSemantics::kTrail);
  ASSERT_TRUE(sub_answer.ok() && full_answer.ok());
  EXPECT_EQ(sub_answer->size(), full_answer->size());
  // Edge ids coincide here because Knows edges come first in Figure 1.
  EXPECT_EQ(*sub_answer, *full_answer);
}

// ---------------------------------------------------------------------------
// Group variables (§2.3).
// ---------------------------------------------------------------------------
TEST_F(TransformTest, NodesAndEdgesAlong) {
  Path p({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2});
  EXPECT_EQ(NodesAlong(p),
            (std::vector<NodeId>{ids_.n1, ids_.n2, ids_.n3}));
  EXPECT_EQ(EdgesAlong(p), (std::vector<EdgeId>{ids_.e1, ids_.e2}));
  Path node = Path::SingleNode(ids_.n5);
  EXPECT_EQ(NodesAlong(node).size(), 1u);
  EXPECT_TRUE(EdgesAlong(node).empty());
}

TEST_F(TransformTest, CollectNodeProperty) {
  Path p({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2});
  auto names = CollectNodeProperty(g_, p, "name");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(*names[0], Value("Moe"));
  EXPECT_EQ(*names[1], Value("Homer"));
  EXPECT_EQ(*names[2], Value("Lisa"));
  auto missing = CollectNodeProperty(g_, p, "age");
  for (const auto& v : missing) EXPECT_FALSE(v.has_value());
}

TEST_F(TransformTest, CollectEdgePropertyAndDistinctLabels) {
  // Mixed Person/Message path: (n1)-Likes->(n6)-Has_creator->(n3).
  Path p({ids_.n1, ids_.n6, ids_.n3}, {ids_.e8, ids_.e11});
  auto labels = DistinctNodeLabels(g_, p);
  EXPECT_EQ(labels, (std::vector<std::string>{"Person", "Message"}));
  auto props = CollectEdgeProperty(g_, p, "since");
  ASSERT_EQ(props.size(), 2u);
  EXPECT_FALSE(props[0].has_value());
}

TEST_F(TransformTest, SumEdgeProperty) {
  GraphBuilder b;
  NodeId a = b.AddNode("City", {{"name", Value("A")}});
  NodeId c = b.AddNode("City", {{"name", Value("B")}});
  NodeId d = b.AddNode("City", {{"name", Value("C")}});
  auto e1 = b.AddEdge(a, c, "Road", {{"km", Value(12.5)}});
  auto e2 = b.AddEdge(c, d, "Road", {{"km", Value(7)}});
  auto e3 = b.AddEdge(a, d, "Ferry");  // no km property
  ASSERT_TRUE(e1.ok() && e2.ok() && e3.ok());
  PropertyGraph g = b.Build();
  Path route({a, c, d}, {*e1, *e2});
  auto total = SumEdgeProperty(g, route, "km");
  ASSERT_TRUE(total.has_value());
  EXPECT_DOUBLE_EQ(*total, 19.5);
  Path ferry({a, d}, {*e3});
  EXPECT_FALSE(SumEdgeProperty(g, ferry, "km").has_value());
}

}  // namespace
}  // namespace pathalg

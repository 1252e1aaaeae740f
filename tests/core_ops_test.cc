// Unit tests for the Core Path Algebra (Definition 3.1): σ, ⋈, ∪ and the
// ∩/− extensions, including the paper's §3 friends-of-friends example
// (Figure 3) evaluated by hand-composing the operators.

#include <gtest/gtest.h>

#include "algebra/core_ops.h"
#include "path/path_ops.h"
#include "workload/figure1.h"

namespace pathalg {
namespace {

class CoreOpsTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeFigure1Graph(&ids_); }

  PathSet KnowsEdges() {
    return Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Knows"));
  }

  PropertyGraph g_;
  Figure1Ids ids_;
};

TEST_F(CoreOpsTest, SelectFiltersByCondition) {
  PathSet knows = KnowsEdges();
  EXPECT_EQ(knows.size(), 4u);
  for (PathRef p : knows) {
    EXPECT_EQ(LabelOfEdgeAt(g_, p, 1), "Knows");
  }
}

TEST_F(CoreOpsTest, SelectOnEmptySetIsEmpty) {
  PathSet empty;
  EXPECT_TRUE(Select(g_, empty, *EdgeLabelEq(1, "Knows")).empty());
}

TEST_F(CoreOpsTest, SelectPreservesInputOrder) {
  PathSet edges = EdgesOf(g_);
  PathSet likes = Select(g_, edges, *EdgeLabelEq(1, "Likes"));
  // Likes edges in insertion order: e5, e7, e8, e9.
  ASSERT_EQ(likes.size(), 4u);
  EXPECT_EQ(likes[0].EdgeAt(1), ids_.e5);
  EXPECT_EQ(likes[1].EdgeAt(1), ids_.e7);
  EXPECT_EQ(likes[2].EdgeAt(1), ids_.e8);
  EXPECT_EQ(likes[3].EdgeAt(1), ids_.e9);
}

TEST_F(CoreOpsTest, JoinConcatenatesOnSharedEndpoint) {
  // Knows ⋈ Knows: 2-hop friend paths. From Figure 1:
  // e1◦e2 (n1→n3), e1◦e4 (n1→n4), e2◦e3 (n2→n2), e3◦e2 (n3→n3),
  // e3◦e4 (n3→n4), e2 ends at n3 which has out-Knows e3 → e2◦e3, etc.
  PathSet knows = KnowsEdges();
  PathSet two_hop = Join(knows, knows);
  PathSet expected;
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2}));
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n4}, {ids_.e1, ids_.e4}));
  expected.Insert(Path({ids_.n2, ids_.n3, ids_.n2}, {ids_.e2, ids_.e3}));
  expected.Insert(Path({ids_.n3, ids_.n2, ids_.n3}, {ids_.e3, ids_.e2}));
  expected.Insert(Path({ids_.n3, ids_.n2, ids_.n4}, {ids_.e3, ids_.e4}));
  EXPECT_EQ(two_hop, expected);
}

TEST_F(CoreOpsTest, JoinWithNodesIsIdentityOnMatchingEndpoints) {
  PathSet knows = KnowsEdges();
  PathSet nodes = NodesOf(g_);
  // S ⋈ Nodes(G) = S (every path's Last has a zero-length continuation).
  EXPECT_EQ(Join(knows, nodes), knows);
  EXPECT_EQ(Join(nodes, knows), knows);
}

TEST_F(CoreOpsTest, JoinWithEmptyIsEmpty) {
  PathSet empty;
  EXPECT_TRUE(Join(KnowsEdges(), empty).empty());
  EXPECT_TRUE(Join(empty, KnowsEdges()).empty());
}

TEST_F(CoreOpsTest, JoinProducesNoMatchesAcrossDisconnectedSets) {
  // Has_creator edges end at Persons; no Has_creator edge starts at a
  // Person, so Has_creator ⋈ Has_creator = ∅.
  PathSet hc = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Has_creator"));
  EXPECT_TRUE(Join(hc, hc).empty());
}

TEST_F(CoreOpsTest, UnionDeduplicates) {
  PathSet knows = KnowsEdges();
  PathSet all = Union(knows, KnowsEdges());
  EXPECT_EQ(all, knows);
  PathSet likes = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Likes"));
  PathSet both = Union(knows, likes);
  EXPECT_EQ(both.size(), 8u);
}

TEST_F(CoreOpsTest, UnionIsCommutativeAndAssociativeAsSets) {
  PathSet a = KnowsEdges();
  PathSet b = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Likes"));
  PathSet c = NodesOf(g_);
  EXPECT_EQ(Union(a, b), Union(b, a));
  EXPECT_EQ(Union(Union(a, b), c), Union(a, Union(b, c)));
  EXPECT_EQ(Union(a, a), a);  // idempotent
}

TEST_F(CoreOpsTest, JoinIsAssociative) {
  PathSet knows = KnowsEdges();
  PathSet left = Join(Join(knows, knows), knows);
  PathSet right = Join(knows, Join(knows, knows));
  EXPECT_EQ(left, right);
}

TEST_F(CoreOpsTest, JoinDistributesOverUnion) {
  PathSet knows = KnowsEdges();
  PathSet likes = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Likes"));
  PathSet hc = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Has_creator"));
  EXPECT_EQ(Join(Union(knows, likes), hc),
            Union(Join(knows, hc), Join(likes, hc)));
  EXPECT_EQ(Join(hc, Union(knows, likes)),
            Union(Join(hc, knows), Join(hc, likes)));
}

TEST_F(CoreOpsTest, IntersectAndDifference) {
  PathSet knows = KnowsEdges();
  PathSet edges = EdgesOf(g_);
  EXPECT_EQ(Intersect(knows, edges), knows);
  EXPECT_EQ(Intersect(edges, knows), knows);
  PathSet not_knows = Difference(edges, knows);
  EXPECT_EQ(not_knows.size(), 7u);
  EXPECT_TRUE(Intersect(not_knows, knows).empty());
  EXPECT_EQ(Union(not_knows, knows), edges);
  EXPECT_TRUE(Difference(knows, edges).empty());
}

TEST_F(CoreOpsTest, Figure3FriendsOfFriendsPlanByHand) {
  // σ_{first.name="Moe"}( σK(Se) ∪ (σK(Se) ⋈ σK(Se)) )  — Figure 3.
  PathSet knows = KnowsEdges();
  PathSet unioned = Union(knows, Join(knows, knows));
  PathSet result = Select(g_, unioned, *FirstPropEq("name", Value("Moe")));
  // Moe's 1-hop: (n1,e1,n2); 2-hop: (n1,e1,n2,e2,n3), (n1,e1,n2,e4,n4).
  PathSet expected;
  expected.Insert(Path({ids_.n1, ids_.n2}, {ids_.e1}));
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2}));
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n4}, {ids_.e1, ids_.e4}));
  EXPECT_EQ(result, expected);
}

TEST_F(CoreOpsTest, SelectionPushdownEquivalenceOnFigure3) {
  // Pushing σ_{first.name="Moe"} below the union and to the left join
  // operand (Figure 6's rewrite) preserves the result.
  PathSet knows = KnowsEdges();
  auto moe = FirstPropEq("name", Value("Moe"));
  PathSet plan_a = Select(
      g_, Union(knows, Join(knows, knows)), *moe);
  PathSet moe_knows = Select(g_, knows, *moe);
  PathSet plan_b = Union(moe_knows, Join(moe_knows, knows));
  EXPECT_EQ(plan_a, plan_b);
}

}  // namespace
}  // namespace pathalg

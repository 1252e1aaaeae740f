// Tests for the Recursive Path Algebra (§4): the ϕ operator under all five
// semantics, both engines (naive Definition 4.1 fixpoint and optimized),
// budget behaviour on cyclic inputs, and the paper's Table 3.

#include <gtest/gtest.h>

#include "algebra/core_ops.h"
#include "algebra/recursive.h"
#include "path/path_ops.h"
#include "workload/figure1.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

class RecursiveTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeFigure1Graph(&ids_); }

  PathSet KnowsEdges() {
    return Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Knows"));
  }

  // The 14 paths of Table 3 (Knows+ paths on Figure 1).
  Path T3(int which) {
    auto& i = ids_;
    switch (which) {
      case 1: return Path({i.n1, i.n2}, {i.e1});
      case 2: return Path({i.n1, i.n2, i.n3, i.n2}, {i.e1, i.e2, i.e3});
      case 3: return Path({i.n1, i.n2, i.n3}, {i.e1, i.e2});
      case 4:
        return Path({i.n1, i.n2, i.n3, i.n2, i.n3},
                    {i.e1, i.e2, i.e3, i.e2});
      case 5: return Path({i.n1, i.n2, i.n4}, {i.e1, i.e4});
      case 6:
        return Path({i.n1, i.n2, i.n3, i.n2, i.n4},
                    {i.e1, i.e2, i.e3, i.e4});
      case 7: return Path({i.n2, i.n3, i.n2}, {i.e2, i.e3});
      case 8:
        return Path({i.n2, i.n3, i.n2, i.n3, i.n2},
                    {i.e2, i.e3, i.e2, i.e3});
      case 9: return Path({i.n2, i.n3}, {i.e2});
      case 10:
        return Path({i.n2, i.n3, i.n2, i.n3}, {i.e2, i.e3, i.e2});
      case 11: return Path({i.n2, i.n4}, {i.e4});
      case 12:
        return Path({i.n2, i.n3, i.n2, i.n4}, {i.e2, i.e3, i.e4});
      case 13: return Path({i.n3, i.n2, i.n4}, {i.e3, i.e4});
      case 14:
        return Path({i.n3, i.n2, i.n3, i.n2, i.n4},
                    {i.e3, i.e2, i.e3, i.e4});
      default:
        ADD_FAILURE() << "bad Table 3 index";
        return Path();
    }
  }

  PropertyGraph g_;
  Figure1Ids ids_;
};

// ---------------------------------------------------------------------------
// Table 3: membership of the paper's 14 sample paths under each semantics.
// The paper's checkmark columns, derived from the definitions:
//   Walk: all 14.
//   Trail (no repeated edge): p1,p2,p3,p5,p6,p7,p9,p11,p12,p13 — exactly the
//     set §5 Step 3 quotes.
//   Acyclic (no repeated node): p1,p3,p5,p9,p11,p13.
//   Simple (acyclic or closed): acyclic + p7.
//   Shortest (per endpoints): p1,p3,p5,p7,p9,p11,p13.
// ---------------------------------------------------------------------------
TEST_F(RecursiveTest, Table3Walk) {
  // All Table 3 paths are valid Knows+ walks; ϕWalk truncated at length 4
  // must contain every one of them.
  auto r = Recursive(KnowsEdges(), PathSemantics::kWalk,
                     {.max_path_length = 4, .truncate = true});
  ASSERT_TRUE(r.ok());
  for (int i = 1; i <= 14; ++i) {
    EXPECT_TRUE(r->Contains(T3(i))) << "p" << i;
  }
  // Walks of length ≤ 4 over the Knows subgraph: 4 + 5 + 4 + 5 = 18.
  EXPECT_EQ(r->size(), 18u);
}

TEST_F(RecursiveTest, Table3Trail) {
  auto r = Recursive(KnowsEdges(), PathSemantics::kTrail);
  ASSERT_TRUE(r.ok());
  const std::set<int> in_table = {1, 2, 3, 5, 6, 7, 9, 11, 12, 13};
  for (int i = 1; i <= 14; ++i) {
    EXPECT_EQ(r->Contains(T3(i)), in_table.count(i) == 1) << "p" << i;
  }
  // The complete trail set additionally contains (n3,e3,n2) and
  // (n3,e3,n2,e2,n3), which Table 3 (explicitly non-exhaustive) omits.
  EXPECT_TRUE(r->Contains(Path({ids_.n3, ids_.n2}, {ids_.e3})));
  EXPECT_TRUE(
      r->Contains(Path({ids_.n3, ids_.n2, ids_.n3}, {ids_.e3, ids_.e2})));
  EXPECT_EQ(r->size(), 12u);
}

TEST_F(RecursiveTest, Table3Acyclic) {
  auto r = Recursive(KnowsEdges(), PathSemantics::kAcyclic);
  ASSERT_TRUE(r.ok());
  const std::set<int> in_table = {1, 3, 5, 9, 11, 13};
  for (int i = 1; i <= 14; ++i) {
    EXPECT_EQ(r->Contains(T3(i)), in_table.count(i) == 1) << "p" << i;
  }
  // Complete acyclic answer: the 4 edges + 3 two-hop paths.
  EXPECT_EQ(r->size(), 7u);
  EXPECT_TRUE(r->Contains(Path({ids_.n3, ids_.n2}, {ids_.e3})));
}

TEST_F(RecursiveTest, Table3Simple) {
  auto r = Recursive(KnowsEdges(), PathSemantics::kSimple);
  ASSERT_TRUE(r.ok());
  const std::set<int> in_table = {1, 3, 5, 7, 9, 11, 13};
  for (int i = 1; i <= 14; ++i) {
    EXPECT_EQ(r->Contains(T3(i)), in_table.count(i) == 1) << "p" << i;
  }
  // Complete simple answer: 7 acyclic + closed cycles (n2..n2), (n3..n3).
  EXPECT_EQ(r->size(), 9u);
  EXPECT_TRUE(
      r->Contains(Path({ids_.n3, ids_.n2, ids_.n3}, {ids_.e3, ids_.e2})));
}

TEST_F(RecursiveTest, Table3Shortest) {
  auto r = Recursive(KnowsEdges(), PathSemantics::kShortest);
  ASSERT_TRUE(r.ok());
  const std::set<int> in_table = {1, 3, 5, 7, 9, 11, 13};
  for (int i = 1; i <= 14; ++i) {
    EXPECT_EQ(r->Contains(T3(i)), in_table.count(i) == 1) << "p" << i;
  }
  // One shortest path per reachable (s,t) pair here; 9 pairs in total
  // (Table 3's 7 plus (n3,n2) and (n3,n3)).
  EXPECT_EQ(r->size(), 9u);
}

// ---------------------------------------------------------------------------
// Termination and budgets.
// ---------------------------------------------------------------------------
TEST_F(RecursiveTest, WalkOnCyclicInputExhaustsBudget) {
  // §4: "the recursive operator will never halt" — our engines report it.
  auto r = Recursive(KnowsEdges(), PathSemantics::kWalk,
                     {.max_path_length = 64, .truncate = false});
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST_F(RecursiveTest, WalkTruncateReturnsBoundedAnswer) {
  auto r = Recursive(KnowsEdges(), PathSemantics::kWalk,
                     {.max_path_length = 2, .truncate = true});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 9u);  // 4 edges + 5 two-hop walks
  for (PathRef p : *r) EXPECT_LE(p.Len(), 2u);
}

TEST_F(RecursiveTest, WalkTerminatesNaturallyOnAcyclicInput) {
  PropertyGraph chain = MakeChainGraph(6);
  auto r = Recursive(EdgesOf(chain), PathSemantics::kWalk);
  ASSERT_TRUE(r.ok());
  // All subpaths of length ≥ 1 of a 6-node chain: 5+4+3+2+1 = 15.
  EXPECT_EQ(r->size(), 15u);
}

TEST_F(RecursiveTest, MaxPathsBudget) {
  PropertyGraph cycle = MakeCycleGraph(4);
  auto r = Recursive(EdgesOf(cycle), PathSemantics::kWalk,
                     {.max_paths = 10, .truncate = false});
  EXPECT_TRUE(r.status().IsResourceExhausted());
  auto t = Recursive(EdgesOf(cycle), PathSemantics::kWalk,
                     {.max_paths = 10, .truncate = true});
  ASSERT_TRUE(t.ok());
  EXPECT_LE(t->size(), 10u);
}

// ---------------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------------
TEST_F(RecursiveTest, EmptyBase) {
  for (auto sem :
       {PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple, PathSemantics::kShortest}) {
    for (auto engine : {PhiEngine::kNaive, PhiEngine::kOptimized}) {
      auto r = Recursive(PathSet(), sem, {}, engine);
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(r->empty());
    }
  }
}

TEST_F(RecursiveTest, ZeroLengthBasePathsAreFixpoint) {
  // ϕ over Nodes(G): joins add nothing; the result is Nodes(G) itself.
  PathSet nodes = NodesOf(g_);
  for (auto sem :
       {PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple, PathSemantics::kShortest}) {
    auto r = Recursive(nodes, sem);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, nodes) << PathSemanticsToString(sem);
  }
}

TEST_F(RecursiveTest, MixedZeroAndOneLengthBase) {
  // ϕ over Nodes ∪ KnowsEdges under acyclic semantics: node paths are
  // join-identities, so the answer is Nodes ∪ ϕAcyclic(Knows).
  PathSet base = Union(NodesOf(g_), KnowsEdges());
  auto r = Recursive(base, PathSemantics::kAcyclic);
  ASSERT_TRUE(r.ok());
  auto knows_only = Recursive(KnowsEdges(), PathSemantics::kAcyclic);
  ASSERT_TRUE(knows_only.ok());
  EXPECT_EQ(*r, Union(NodesOf(g_), *knows_only));
}

TEST_F(RecursiveTest, ShortestWithZeroLengthPaths) {
  // With Nodes(G) in the base, the shortest n→n path is the trivial (n).
  PathSet base = Union(NodesOf(g_), KnowsEdges());
  auto r = Recursive(base, PathSemantics::kShortest);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains(Path::SingleNode(ids_.n2)));
  // The 2-cycle (n2,e2,n3,e3,n2) is no longer per-pair shortest.
  EXPECT_FALSE(
      r->Contains(Path({ids_.n2, ids_.n3, ids_.n2}, {ids_.e2, ids_.e3})));
}

TEST_F(RecursiveTest, NonTrailBasePathIsFilteredOut) {
  // A base path that itself violates the restrictor must not appear.
  Path bad({ids_.n2, ids_.n3, ids_.n2, ids_.n3},
           {ids_.e2, ids_.e3, ids_.e2});  // repeats e2
  PathSet base;
  base.Insert(bad);
  auto r = Recursive(base, PathSemantics::kTrail);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(RecursiveTest, CompositeBaseUnits) {
  // ϕ over 2-edge units (Likes/Has_creator): lengths are multiples of 2.
  PathSet likes = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Likes"));
  PathSet hc = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Has_creator"));
  PathSet unit = Join(likes, hc);
  auto r = Recursive(unit, PathSemantics::kSimple);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->empty());
  for (PathRef p : *r) {
    EXPECT_EQ(p.Len() % 2, 0u);
    EXPECT_TRUE(p.IsSimple());
  }
  // path2 of §1 (n1,e8,n6,e11,n3,e7,n7,e10,n4) is a 2-unit composition.
  EXPECT_TRUE(r->Contains(Path({ids_.n1, ids_.n6, ids_.n3, ids_.n7, ids_.n4},
                               {ids_.e8, ids_.e11, ids_.e7, ids_.e10})));
}

// ---------------------------------------------------------------------------
// Differential: naive Definition 4.1 engine ≡ optimized engine.
// ---------------------------------------------------------------------------
using SemParam = ::testing::TestWithParam<PathSemantics>;

TEST_P(SemParam, NaiveEqualsOptimizedOnFigure1) {
  Figure1Ids ids;
  PropertyGraph g = MakeFigure1Graph(&ids);
  PathSet knows = Select(g, EdgesOf(g), *EdgeLabelEq(1, "Knows"));
  EvalLimits limits;
  if (GetParam() == PathSemantics::kWalk) {
    limits.max_path_length = 6;
    limits.truncate = true;
  }
  auto naive = Recursive(knows, GetParam(), limits, PhiEngine::kNaive);
  auto opt = Recursive(knows, GetParam(), limits, PhiEngine::kOptimized);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(*naive, *opt);
}

TEST_P(SemParam, NaiveEqualsOptimizedOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PropertyGraph g = MakeRandomGraph(8, 14, {"a", "b"}, seed);
    PathSet base = EdgesOf(g);
    EvalLimits limits;
    if (GetParam() == PathSemantics::kWalk) {
      limits.max_path_length = 4;
      limits.truncate = true;
    }
    auto naive = Recursive(base, GetParam(), limits, PhiEngine::kNaive);
    auto opt = Recursive(base, GetParam(), limits, PhiEngine::kOptimized);
    ASSERT_TRUE(naive.ok()) << "seed " << seed;
    ASSERT_TRUE(opt.ok()) << "seed " << seed;
    EXPECT_EQ(*naive, *opt) << "seed " << seed << " sem "
                            << PathSemanticsToString(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSemantics, SemParam,
    ::testing::Values(PathSemantics::kWalk, PathSemantics::kTrail,
                      PathSemantics::kAcyclic, PathSemantics::kSimple,
                      PathSemantics::kShortest),
    [](const ::testing::TestParamInfo<PathSemantics>& info) {
      return PathSemanticsToString(info.param);
    });

// ---------------------------------------------------------------------------
// Semantics-level invariants (property tests over random graphs).
// ---------------------------------------------------------------------------
TEST(RecursivePropertyTest, ContainmentLattice) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PropertyGraph g = MakeRandomGraph(7, 12, {"a"}, seed);
    PathSet base = EdgesOf(g);
    auto acyclic = Recursive(base, PathSemantics::kAcyclic);
    auto simple = Recursive(base, PathSemantics::kSimple);
    auto trail = Recursive(base, PathSemantics::kTrail);
    auto shortest = Recursive(base, PathSemantics::kShortest);
    ASSERT_TRUE(acyclic.ok() && simple.ok() && trail.ok() && shortest.ok());
    // acyclic ⊆ simple ⊆ trail (repeating a node forces repeating an edge
    // only in the simple→trail direction: a simple path repeats no edge).
    for (PathRef p : *acyclic) EXPECT_TRUE(simple->Contains(p));
    for (PathRef p : *simple) EXPECT_TRUE(p.IsTrail());
    for (PathRef p : *simple) EXPECT_TRUE(trail->Contains(p));
    // Every shortest path is a shortest among walks: minimal per pair.
    for (PathRef a : *shortest) {
      for (PathRef b : *shortest) {
        if (a.First() == b.First() && a.Last() == b.Last()) {
          EXPECT_EQ(a.Len(), b.Len());
        }
      }
    }
  }
}

TEST(RecursivePropertyTest, ShortestAgreesWithTrailMinima) {
  // A shortest walk never repeats an edge (cutting the cycle shortens it),
  // so per-pair minima over trails equal per-pair minima over walks.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PropertyGraph g = MakeRandomGraph(7, 12, {"a", "b"}, seed);
    PathSet base = EdgesOf(g);
    auto shortest = Recursive(base, PathSemantics::kShortest);
    auto trail = Recursive(base, PathSemantics::kTrail);
    ASSERT_TRUE(shortest.ok() && trail.ok());
    EXPECT_EQ(*shortest, KeepShortestPerEndpointPair(*trail));
  }
}

TEST(RecursivePropertyTest, DiamondChainShortestCountDoubles) {
  // k diamonds → 2^k shortest end-to-end paths; checks all-shortest
  // enumeration, not just one witness.
  for (size_t k : {1u, 2u, 3u, 4u}) {
    PropertyGraph g = MakeDiamondChainGraph(k);
    auto r = Recursive(EdgesOf(g), PathSemantics::kShortest);
    ASSERT_TRUE(r.ok());
    NodeId first = g.FindNodeByProperty("id", Value(int64_t(0)));
    NodeId last = g.FindNodeByProperty("id", Value(int64_t(k)));
    size_t count = 0;
    for (PathRef p : *r) {
      if (p.First() == first && p.Last() == last) {
        ++count;
        EXPECT_EQ(p.Len(), 2 * k);
      }
    }
    EXPECT_EQ(count, size_t(1) << k);
  }
}

TEST(RecursivePropertyTest, TrailBoundedByEdgeCount) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    PropertyGraph g = MakeRandomGraph(5, 9, {"a"}, seed);
    auto r = Recursive(EdgesOf(g), PathSemantics::kTrail);
    ASSERT_TRUE(r.ok());
    for (PathRef p : *r) {
      EXPECT_LE(p.Len(), g.num_edges());
      EXPECT_TRUE(p.IsTrail());
    }
  }
}

TEST(RecursivePropertyTest, AcyclicBoundedByNodeCount) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    PropertyGraph g = MakeRandomGraph(6, 12, {"a"}, seed);
    auto r = Recursive(EdgesOf(g), PathSemantics::kAcyclic);
    ASSERT_TRUE(r.ok());
    for (PathRef p : *r) {
      EXPECT_LT(p.Len(), g.num_nodes());
      EXPECT_TRUE(p.IsAcyclic());
    }
  }
}

TEST(RecursiveTest2, SemanticsNames) {
  EXPECT_STREQ(PathSemanticsToString(PathSemantics::kWalk), "WALK");
  EXPECT_STREQ(PathSemanticsToString(PathSemantics::kTrail), "TRAIL");
  EXPECT_STREQ(PathSemanticsToString(PathSemantics::kAcyclic), "ACYCLIC");
  EXPECT_STREQ(PathSemanticsToString(PathSemantics::kSimple), "SIMPLE");
  EXPECT_STREQ(PathSemanticsToString(PathSemantics::kShortest), "SHORTEST");
}

}  // namespace
}  // namespace pathalg

// Unit tests for the path data model (§2.2, §3.1): construction, the
// 1-based path operators, concatenation ◦, the walk/trail/acyclic/simple
// classification, PathSet semantics and the graph-aware accessors.

#include <gtest/gtest.h>

#include "path/path.h"
#include "path/path_ops.h"
#include "path/path_set.h"
#include "workload/figure1.h"

namespace pathalg {
namespace {

class PathTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeFigure1Graph(&ids_); }
  PropertyGraph g_;
  Figure1Ids ids_;
};

TEST_F(PathTest, SingleNodeHasLengthZero) {
  Path p = Path::SingleNode(ids_.n1);
  EXPECT_EQ(p.Len(), 0u);
  EXPECT_EQ(p.First(), ids_.n1);
  EXPECT_EQ(p.Last(), ids_.n1);
  EXPECT_EQ(p.NodeAt(1), ids_.n1);
  EXPECT_EQ(p.EdgeAt(1), kInvalidId);
}

TEST_F(PathTest, EdgeOfBuildsLengthOnePath) {
  Path p = Path::EdgeOf(g_, ids_.e1);
  EXPECT_EQ(p.Len(), 1u);
  EXPECT_EQ(p.First(), ids_.n1);
  EXPECT_EQ(p.Last(), ids_.n2);
  EXPECT_EQ(p.EdgeAt(1), ids_.e1);
}

TEST_F(PathTest, PositionsAreOneBased) {
  // p = (n1, e1, n2, e2, n3): Node(p,2) = n2, Edge(p,1) = e1 (§3.1).
  Path p({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2});
  EXPECT_EQ(p.Len(), 2u);
  EXPECT_EQ(p.NodeAt(1), ids_.n1);
  EXPECT_EQ(p.NodeAt(2), ids_.n2);
  EXPECT_EQ(p.NodeAt(3), ids_.n3);
  EXPECT_EQ(p.NodeAt(4), kInvalidId);
  EXPECT_EQ(p.NodeAt(0), kInvalidId);
  EXPECT_EQ(p.EdgeAt(1), ids_.e1);
  EXPECT_EQ(p.EdgeAt(2), ids_.e2);
  EXPECT_EQ(p.EdgeAt(3), kInvalidId);
}

TEST_F(PathTest, ConcatMatchesPaperExample) {
  // §3.1: p1 = (n1, e1, n2), p2 = (n2, e3, n3) → (n1, e1, n2, e3, n3).
  // (Figure 1's e3 goes n3→n2, so use e2:(n2→n3) as the paper's "e3".)
  Path p1 = Path::EdgeOf(g_, ids_.e1);
  Path p2 = Path::EdgeOf(g_, ids_.e2);
  Result<Path> r = Path::Concat(p1, p2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Len(), 2u);
  EXPECT_EQ(r->First(), ids_.n1);
  EXPECT_EQ(r->Last(), ids_.n3);
  EXPECT_EQ(r->ToString(g_), "(n1, e1, n2, e2, n3)");
}

TEST_F(PathTest, ConcatRequiresMatchingEndpoints) {
  Path p1 = Path::EdgeOf(g_, ids_.e1);  // ends at n2
  Path p2 = Path::EdgeOf(g_, ids_.e8);  // starts at n1
  EXPECT_TRUE(Path::Concat(p1, p2).status().IsInvalidArgument());
  EXPECT_TRUE(Path::Concat(Path(), p1).status().IsInvalidArgument());
}

TEST_F(PathTest, ConcatWithZeroLengthPathIsIdentity) {
  Path p = Path::EdgeOf(g_, ids_.e1);
  Path node = Path::SingleNode(ids_.n2);
  Result<Path> right = Path::Concat(p, node);
  ASSERT_TRUE(right.ok());
  EXPECT_EQ(*right, p);
  Result<Path> left = Path::Concat(Path::SingleNode(ids_.n1), p);
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(*left, p);
}

TEST_F(PathTest, ClassificationOnPaperTable3Paths) {
  // p2 of Table 3: (n1, e1, n2, e2, n3, e3, n2) — trail, not acyclic,
  // not simple (n2 repeats and is not the first node).
  Path p2({ids_.n1, ids_.n2, ids_.n3, ids_.n2}, {ids_.e1, ids_.e2, ids_.e3});
  EXPECT_TRUE(p2.IsTrail());
  EXPECT_FALSE(p2.IsAcyclic());
  EXPECT_FALSE(p2.IsSimple());

  // p4: (n1, e1, n2, e2, n3, e3, n2, e2, n3) — repeats e2: not a trail.
  Path p4({ids_.n1, ids_.n2, ids_.n3, ids_.n2, ids_.n3},
          {ids_.e1, ids_.e2, ids_.e3, ids_.e2});
  EXPECT_FALSE(p4.IsTrail());
  EXPECT_FALSE(p4.IsAcyclic());
  EXPECT_FALSE(p4.IsSimple());

  // p7: (n2, e2, n3, e3, n2) — a closed simple path (first == last).
  Path p7({ids_.n2, ids_.n3, ids_.n2}, {ids_.e2, ids_.e3});
  EXPECT_TRUE(p7.IsTrail());
  EXPECT_FALSE(p7.IsAcyclic());
  EXPECT_TRUE(p7.IsSimple());

  // p5: (n1, e1, n2, e4, n4) — acyclic (hence simple and a trail).
  Path p5({ids_.n1, ids_.n2, ids_.n4}, {ids_.e1, ids_.e4});
  EXPECT_TRUE(p5.IsAcyclic());
  EXPECT_TRUE(p5.IsSimple());
  EXPECT_TRUE(p5.IsTrail());
}

TEST_F(PathTest, ClassificationContainments) {
  // Acyclic ⊆ simple; zero-length paths are everything.
  Path node = Path::SingleNode(ids_.n1);
  EXPECT_TRUE(node.IsAcyclic());
  EXPECT_TRUE(node.IsSimple());
  EXPECT_TRUE(node.IsTrail());
  // A closed walk visiting an interior node twice is not simple:
  // (n2, e2, n3, e3, n2, e2, n3, e3, n2) — interior n3, n2 repeat.
  Path closed({ids_.n2, ids_.n3, ids_.n2, ids_.n3, ids_.n2},
              {ids_.e2, ids_.e3, ids_.e2, ids_.e3});
  EXPECT_FALSE(closed.IsSimple());
  EXPECT_FALSE(closed.IsTrail());
}

TEST_F(PathTest, ValidateChecksRho) {
  Path good = Path::EdgeOf(g_, ids_.e1);
  EXPECT_TRUE(good.Validate(g_).ok());
  // e2 connects n2→n3, not n1→n2.
  Path bad({ids_.n1, ids_.n2}, {ids_.e2});
  EXPECT_TRUE(bad.Validate(g_).IsInvalidArgument());
  Path unknown_edge({ids_.n1, ids_.n2}, {999});
  EXPECT_TRUE(unknown_edge.Validate(g_).IsInvalidArgument());
  Path unknown_node({999}, {});
  EXPECT_TRUE(unknown_node.Validate(g_).IsInvalidArgument());
  EXPECT_TRUE(Path().Validate(g_).IsInvalidArgument());
}

TEST_F(PathTest, CanonicalOrderIsLengthThenIds) {
  Path a = Path::SingleNode(ids_.n1);
  Path b = Path::EdgeOf(g_, ids_.e1);
  Path c = Path::EdgeOf(g_, ids_.e2);
  EXPECT_LT(a, b);  // shorter first
  EXPECT_LT(b, c);  // then by node ids
  EXPECT_FALSE(c < b);
}

TEST_F(PathTest, EqualityAndHash) {
  Path a = Path::EdgeOf(g_, ids_.e1);
  Path b = Path::SingleEdge(ids_.n1, ids_.e1, ids_.n2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  Path c = Path::EdgeOf(g_, ids_.e2);
  EXPECT_NE(a, c);
}

TEST_F(PathTest, PathSetDeduplicates) {
  PathSet s;
  EXPECT_TRUE(s.Insert(Path::EdgeOf(g_, ids_.e1)));
  EXPECT_FALSE(s.Insert(Path::EdgeOf(g_, ids_.e1)));
  EXPECT_TRUE(s.Insert(Path::EdgeOf(g_, ids_.e2)));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(Path::EdgeOf(g_, ids_.e1)));
  EXPECT_FALSE(s.Contains(Path::SingleNode(ids_.n1)));
}

TEST_F(PathTest, PathSetInsertHashedMatchesInsert) {
  // InsertHashed with the correct precomputed hash must make byte-for-byte
  // the same dedup decisions and produce the same insertion order as
  // Insert — it is what the parallel merge loops rely on.
  std::vector<Path> inputs = {
      Path::EdgeOf(g_, ids_.e1), Path::EdgeOf(g_, ids_.e2),
      Path::EdgeOf(g_, ids_.e1),  // duplicate
      Path({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2}),
      Path::SingleNode(ids_.n1),
      Path({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2}),  // duplicate
  };
  PathSet via_insert, via_hashed;
  for (const Path& p : inputs) {
    const bool a = via_insert.Insert(p);
    const bool b = via_hashed.InsertHashed(p, p.Hash());
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(via_insert.paths(), via_hashed.paths());  // same order, too
  EXPECT_EQ(via_hashed.size(), 4u);
  EXPECT_TRUE(via_hashed.Contains(Path::EdgeOf(g_, ids_.e2)));
}

TEST_F(PathTest, PathSetHashCollisionsStillCompareByValue) {
  // A wrong-but-shared hash may only ever cause extra equality probes,
  // never a false dedup: distinct paths inserted under one hash bucket
  // must both survive and remain findable.
  PathSet s;
  Path a = Path::EdgeOf(g_, ids_.e1);
  Path b = Path::EdgeOf(g_, ids_.e2);
  EXPECT_TRUE(s.InsertHashed(a, 42));
  EXPECT_TRUE(s.InsertHashed(b, 42));   // collides, but a != b
  EXPECT_FALSE(s.InsertHashed(a, 42));  // exact duplicate in the bucket
  EXPECT_EQ(s.size(), 2u);
}

// The dedup index is an open-addressing table of uint32 slots with linear
// probing; these tests drive it through growth, long probe chains,
// wrap-around, and the whole-set operations.

/// Distinct synthetic paths (the index never consults a graph).
Path SyntheticPath(uint32_t i) {
  return Path({i % 1000, i / 1000, i % 7}, {i, i + 1});
}

TEST_F(PathTest, PathSetIndexCrossesRehashBoundaries) {
  constexpr uint32_t kCount = 120000;  // 16 → 262144 slots: 14 rehashes
  PathSet s;
  for (uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(s.Insert(SyntheticPath(i))) << i;
  }
  ASSERT_EQ(s.size(), kCount);
  for (uint32_t i = 0; i < kCount; ++i) {
    const Path p = SyntheticPath(i);
    ASSERT_TRUE(s.Contains(p)) << i;
    ASSERT_FALSE(s.Insert(p)) << i;
    ASSERT_EQ(s.paths()[i], p) << "insertion order lost at " << i;
    ASSERT_EQ(s.hash_of(i), s.paths()[i].Hash()) << i;
  }
  EXPECT_EQ(s.size(), kCount);
  EXPECT_FALSE(s.Contains(SyntheticPath(kCount)));
}

TEST_F(PathTest, PathSetLongProbeChainsWrapAroundTheTable) {
  // Every hash has its low 16 bits set, so each path's home is the last
  // slot of every table up to 65536 slots: the chain starts at the end,
  // wraps to slot 0 and grows through several rehashes. Half the paths
  // share one full hash, so only the Path equality test tells them apart.
  constexpr size_t kLowBits = 0xffff;
  constexpr uint32_t kCount = 600;
  auto hash_for = [](uint32_t i) -> size_t {
    return i % 2 == 0 ? (size_t{1} << 40) | kLowBits
                      : (static_cast<size_t>(i) << 32) | kLowBits;
  };
  PathSet s;
  for (uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(s.InsertHashed(SyntheticPath(i), hash_for(i))) << i;
  }
  // Ordinary hashes land among the chained slots and must not break it.
  for (uint32_t i = kCount; i < kCount + 50; ++i) {
    ASSERT_TRUE(s.Insert(SyntheticPath(i))) << i;
  }
  for (uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(s.ContainsHashed(SyntheticPath(i), hash_for(i))) << i;
    ASSERT_FALSE(s.InsertHashed(SyntheticPath(i), hash_for(i))) << i;
    ASSERT_EQ(s.paths()[i], SyntheticPath(i));
    ASSERT_EQ(s.hash_of(i), hash_for(i));
  }
  for (uint32_t i = kCount; i < kCount + 50; ++i) {
    ASSERT_TRUE(s.Contains(SyntheticPath(i))) << i;
  }
  // Misses walk the whole chain and stop at the first empty slot.
  EXPECT_FALSE(s.ContainsHashed(SyntheticPath(kCount + 50), hash_for(0)));
  EXPECT_FALSE(s.ContainsHashed(SyntheticPath(kCount + 50), kLowBits));
  EXPECT_EQ(s.size(), kCount + 50);
}

TEST_F(PathTest, PathSetReserveClearCopyMoveAndEmptyProbes) {
  PathSet empty;
  EXPECT_FALSE(empty.ContainsHashed(SyntheticPath(0), 0));
  EXPECT_FALSE(empty.ContainsHashed(SyntheticPath(0), SyntheticPath(0).Hash()));
  EXPECT_FALSE(empty.Contains(SyntheticPath(0)));

  PathSet s;
  s.Reserve(1000);
  for (uint32_t i = 0; i < 1000; ++i) ASSERT_TRUE(s.Insert(SyntheticPath(i)));
  for (uint32_t i = 0; i < 1000; ++i) ASSERT_TRUE(s.Contains(SyntheticPath(i)));
  s.Reserve(10);  // never shrinks
  EXPECT_TRUE(s.Contains(SyntheticPath(999)));

  PathSet copy = s;
  EXPECT_TRUE(copy.Insert(SyntheticPath(5000)));
  EXPECT_FALSE(s.Contains(SyntheticPath(5000)));  // copies are independent
  EXPECT_EQ(copy.size(), 1001u);
  EXPECT_EQ(s.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(copy.Contains(SyntheticPath(i)));
  }

  PathSet moved = std::move(copy);
  EXPECT_EQ(moved.size(), 1001u);
  EXPECT_TRUE(moved.Contains(SyntheticPath(5000)));
  EXPECT_FALSE(moved.Insert(SyntheticPath(17)));

  PathSet assigned;
  assigned.Insert(SyntheticPath(9999));
  assigned = std::move(moved);
  EXPECT_FALSE(assigned.Contains(SyntheticPath(9999)));
  EXPECT_TRUE(assigned.Contains(SyntheticPath(5000)));

  s.clear();
  EXPECT_TRUE(s.empty());
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_FALSE(s.Contains(SyntheticPath(i))) << "stale slot for " << i;
  }
  EXPECT_TRUE(s.Insert(SyntheticPath(7)));
  EXPECT_TRUE(s.Insert(SyntheticPath(3)));
  EXPECT_FALSE(s.Insert(SyntheticPath(7)));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], SyntheticPath(7));
  EXPECT_EQ(s[1], SyntheticPath(3));

  // Release hands over paths and hashes in order and leaves an empty,
  // reusable set.
  PathList c = std::move(s).Release();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], SyntheticPath(7));
  EXPECT_EQ(c.hash_of(1), SyntheticPath(3).Hash());
  EXPECT_TRUE(s.empty());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_FALSE(s.Contains(SyntheticPath(7)));
  EXPECT_TRUE(s.Insert(SyntheticPath(7)));
}

TEST_F(PathTest, PathSetEqualityIsOrderInsensitive) {
  PathSet a, b;
  a.Insert(Path::EdgeOf(g_, ids_.e1));
  a.Insert(Path::EdgeOf(g_, ids_.e2));
  b.Insert(Path::EdgeOf(g_, ids_.e2));
  b.Insert(Path::EdgeOf(g_, ids_.e1));
  EXPECT_EQ(a, b);
  b.Insert(Path::EdgeOf(g_, ids_.e3));
  EXPECT_NE(a, b);
}

TEST_F(PathTest, NodesOfAndEdgesOfAreTheAtoms) {
  PathSet nodes = NodesOf(g_);
  PathSet edges = EdgesOf(g_);
  EXPECT_EQ(nodes.size(), 7u);
  EXPECT_EQ(edges.size(), 11u);
  for (PathRef p : nodes) EXPECT_EQ(p.Len(), 0u);
  for (PathRef p : edges) EXPECT_EQ(p.Len(), 1u);
}

TEST_F(PathTest, GraphAwareAccessors) {
  Path p({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2});
  EXPECT_EQ(LabelOfNodeAt(g_, p, 1), "Person");
  EXPECT_EQ(LabelOfEdgeAt(g_, p, 1), "Knows");
  EXPECT_EQ(LabelOfEdgeAt(g_, p, 9), "");
  const Value* name = PropOfNodeAt(g_, p, 1, "name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(*name, Value("Moe"));
  EXPECT_EQ(PropOfNodeAt(g_, p, 1, "missing"), nullptr);
  EXPECT_EQ(PropOfEdgeAt(g_, p, 1, "missing"), nullptr);
  EXPECT_EQ(PropOfNodeAt(g_, p, 17, "name"), nullptr);
}

TEST_F(PathTest, PathWordConcatenatesEdgeLabels) {
  // λ(p) for (n1)-Likes->(n6)-Has_creator->(n3) = "LikesHas_creator" (§2.2).
  Path p({ids_.n1, ids_.n6, ids_.n3}, {ids_.e8, ids_.e11});
  EXPECT_EQ(PathWord(g_, p), "LikesHas_creator");
  EXPECT_EQ(PathWord(g_, Path::SingleNode(ids_.n1)), "");
}

TEST_F(PathTest, ToStringFormats) {
  Path p({ids_.n1, ids_.n2}, {ids_.e1});
  EXPECT_EQ(p.ToString(g_), "(n1, e1, n2)");
  EXPECT_EQ(Path::SingleNode(ids_.n5).ToString(g_), "(n5)");
  PathSet s;
  s.Insert(Path::SingleNode(ids_.n1));
  s.Insert(p);
  EXPECT_EQ(s.ToString(g_), "{(n1), (n1, e1, n2)}");
}

}  // namespace
}  // namespace pathalg

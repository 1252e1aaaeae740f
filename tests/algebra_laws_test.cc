// Algebraic-law property tests: the equational theory the optimizer (and
// any future cost-based planner) relies on, checked over seeded random
// graphs and path sets. These are the "algebra facilitates optimization"
// claims of §7.3 made executable.

#include <gtest/gtest.h>

#include "algebra/core_ops.h"
#include "algebra/recursive.h"
#include "algebra/solution_space.h"
#include "path/path_ops.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

struct LawsCase {
  uint64_t seed;
};

class AlgebraLawsTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    g_ = MakeRandomGraph(8, 14, {"a", "b"}, GetParam());
    a_ = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "a"));
    b_ = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "b"));
    ab_ = Join(a_, b_);
    mixed_ = Union(Union(a_, ab_), NodesOf(g_));
  }
  PropertyGraph g_;
  PathSet a_, b_, ab_, mixed_;
};

TEST_P(AlgebraLawsTest, UnionAci) {
  // Associative, commutative, idempotent.
  EXPECT_EQ(Union(a_, b_), Union(b_, a_));
  EXPECT_EQ(Union(Union(a_, b_), ab_), Union(a_, Union(b_, ab_)));
  EXPECT_EQ(Union(mixed_, mixed_), mixed_);
}

TEST_P(AlgebraLawsTest, IntersectionAndDifferenceLaws) {
  EXPECT_EQ(Intersect(a_, b_), Intersect(b_, a_));
  EXPECT_EQ(Intersect(mixed_, mixed_), mixed_);
  EXPECT_TRUE(Difference(mixed_, mixed_).empty());
  // A = (A ∩ B) ∪ (A − B).
  EXPECT_EQ(Union(Intersect(mixed_, a_), Difference(mixed_, a_)), mixed_);
  // De Morgan-ish within a universe: (A ∪ B) − C = (A − C) ∪ (B − C).
  EXPECT_EQ(Difference(Union(a_, b_), ab_),
            Union(Difference(a_, ab_), Difference(b_, ab_)));
}

TEST_P(AlgebraLawsTest, JoinMonoidWithNodesIdentity) {
  // Associativity.
  EXPECT_EQ(Join(Join(a_, b_), a_), Join(a_, Join(b_, a_)));
  // Nodes(G) is a two-sided identity.
  PathSet nodes = NodesOf(g_);
  EXPECT_EQ(Join(mixed_, nodes), mixed_);
  EXPECT_EQ(Join(nodes, mixed_), mixed_);
}

TEST_P(AlgebraLawsTest, JoinDistributesOverUnion) {
  EXPECT_EQ(Join(Union(a_, b_), ab_),
            Union(Join(a_, ab_), Join(b_, ab_)));
  EXPECT_EQ(Join(ab_, Union(a_, b_)),
            Union(Join(ab_, a_), Join(ab_, b_)));
}

TEST_P(AlgebraLawsTest, SelectionLaws) {
  auto c1 = FirstLabelEq("Node");
  auto c2 = LenCompare(CompareOp::kGe, 1);
  // σ commutes: σc1(σc2(S)) = σc2(σc1(S)) = σ(c1 ∧ c2)(S).
  EXPECT_EQ(Select(g_, Select(g_, mixed_, *c2), *c1),
            Select(g_, Select(g_, mixed_, *c1), *c2));
  EXPECT_EQ(Select(g_, Select(g_, mixed_, *c2), *c1),
            Select(g_, mixed_, *Condition::And(c1, c2)));
  // σ distributes over ∪ / ∩ / −.
  EXPECT_EQ(Select(g_, Union(a_, ab_), *c2),
            Union(Select(g_, a_, *c2), Select(g_, ab_, *c2)));
  EXPECT_EQ(Select(g_, Intersect(mixed_, a_), *c2),
            Intersect(Select(g_, mixed_, *c2), Select(g_, a_, *c2)));
  EXPECT_EQ(Select(g_, Difference(mixed_, a_), *c2),
            Difference(Select(g_, mixed_, *c2), a_));
  // σtrue = id; σ(¬c)(S) = S − σc(S).
  EXPECT_EQ(Select(g_, mixed_, *Condition::Or(c2, Condition::Not(c2))),
            mixed_);
  EXPECT_EQ(Select(g_, mixed_, *Condition::Not(c1)),
            Difference(mixed_, Select(g_, mixed_, *c1)));
}

TEST_P(AlgebraLawsTest, FirstConditionCommutesWithRightJoin) {
  // σ_first(A ⋈ B) = σ_first(A) ⋈ B — the Figure 6 pushdown law.
  auto c = NodePropEq(1, "id", Value(0));
  EXPECT_EQ(Select(g_, Join(a_, b_), *c), Join(Select(g_, a_, *c), b_));
  // σ_last(A ⋈ B) = A ⋈ σ_last(B).
  auto cl = LastPropEq("id", Value(1));
  EXPECT_EQ(Select(g_, Join(a_, b_), *cl), Join(a_, Select(g_, b_, *cl)));
}

TEST_P(AlgebraLawsTest, RestrictLaws) {
  PathSet walks = *Recursive(Union(a_, b_), PathSemantics::kWalk,
                             {.max_path_length = 4, .truncate = true});
  for (PathSemantics sem :
       {PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple, PathSemantics::kShortest}) {
    // Idempotence.
    PathSet once = RestrictPaths(walks, sem);
    EXPECT_EQ(RestrictPaths(once, sem), once);
  }
  // Non-shortest restrictors commute (they are per-path filters).
  EXPECT_EQ(
      RestrictPaths(RestrictPaths(walks, PathSemantics::kTrail),
                    PathSemantics::kSimple),
      RestrictPaths(RestrictPaths(walks, PathSemantics::kSimple),
                    PathSemantics::kTrail));
  // Lattice: acyclic ⊆ simple ⊆ trail.
  EXPECT_EQ(RestrictPaths(RestrictPaths(walks, PathSemantics::kSimple),
                          PathSemantics::kAcyclic),
            RestrictPaths(walks, PathSemantics::kAcyclic));
  EXPECT_EQ(RestrictPaths(RestrictPaths(walks, PathSemantics::kTrail),
                          PathSemantics::kSimple),
            RestrictPaths(walks, PathSemantics::kSimple));
}

TEST_P(AlgebraLawsTest, PhiLaws) {
  EvalLimits bounded{.max_path_length = 4, .truncate = true};
  for (PathSemantics sem :
       {PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple, PathSemantics::kShortest}) {
    PathSet once = *Recursive(a_, sem);
    // ϕ idempotence (the recursive-idempotent optimizer rule).
    // For shortest the re-application sees composite base paths; for the
    // filters the prefix-closure argument applies.
    PathSet twice = *Recursive(once, sem);
    EXPECT_EQ(once, twice) << PathSemanticsToString(sem);
    // ϕ(S) ⊇ filtered S (the base is included).
    for (PathRef p : RestrictPaths(a_, sem)) {
      EXPECT_TRUE(once.Contains(p));
    }
  }
  // ϕ(S ∪ Nodes) = ϕ(S) ∪ Nodes for non-shortest semantics.
  PathSet with_nodes = *Recursive(Union(a_, NodesOf(g_)),
                                  PathSemantics::kTrail, bounded);
  PathSet hoisted = Union(*Recursive(a_, PathSemantics::kTrail, bounded),
                          NodesOf(g_));
  EXPECT_EQ(with_nodes, hoisted);
}

TEST_P(AlgebraLawsTest, ProjectionMonotonicity) {
  PathSet trails = *Recursive(Union(a_, b_), PathSemantics::kTrail,
                              {.max_path_length = 4, .truncate = true});
  SolutionSpace ss = OrderBy(GroupBy(trails, GroupKey::kST), OrderKey::kA);
  PathSet prev;
  for (size_t k = 1; k <= 4; ++k) {
    auto cur = Project(ss, {std::nullopt, std::nullopt, k});
    ASSERT_TRUE(cur.ok());
    // π(*,*,k) ⊆ π(*,*,k+1): monotone in k.
    for (PathRef p : prev) EXPECT_TRUE(cur->Contains(p));
    prev = *cur;
  }
  auto all = Project(ss, {std::nullopt, std::nullopt, std::nullopt});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, trails);  // π(*,*,*) is the identity on the set level
}

TEST_P(AlgebraLawsTest, GroupByPartitionInvariants) {
  PathSet trails = *Recursive(Union(a_, b_), PathSemantics::kTrail,
                              {.max_path_length = 3, .truncate = true});
  for (GroupKey key :
       {GroupKey::kNone, GroupKey::kS, GroupKey::kT, GroupKey::kL,
        GroupKey::kST, GroupKey::kSL, GroupKey::kTL, GroupKey::kSTL}) {
    SolutionSpace ss = GroupBy(trails, key);
    // Every path lands in exactly one group; groups partition the set.
    size_t total = 0;
    for (size_t grp = 0; grp < ss.num_groups(); ++grp) {
      total += ss.PathsOfGroup(grp).size();
      for (uint32_t ix : ss.PathsOfGroup(grp)) {
        EXPECT_EQ(ss.GroupOfPath(ix), grp);
      }
    }
    EXPECT_EQ(total, trails.size());
    // Groups partition into partitions.
    size_t total_groups = 0;
    for (size_t p = 0; p < ss.num_partitions(); ++p) {
      total_groups += ss.GroupsOfPartition(p).size();
      for (uint32_t grp : ss.GroupsOfPartition(p)) {
        EXPECT_EQ(ss.PartitionOfGroup(grp), p);
      }
    }
    EXPECT_EQ(total_groups, ss.num_groups());
  }
}

TEST_P(AlgebraLawsTest, WalkAnswerMonotoneInLengthBudget) {
  PathSet smaller = *Recursive(Union(a_, b_), PathSemantics::kWalk,
                               {.max_path_length = 2, .truncate = true});
  PathSet larger = *Recursive(Union(a_, b_), PathSemantics::kWalk,
                              {.max_path_length = 4, .truncate = true});
  for (PathRef p : smaller) {
    EXPECT_TRUE(larger.Contains(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraLawsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace pathalg

// Tests for the Extended Path Algebra (§5): solution spaces, γψ (Table 4),
// τθ (Table 6), π (Algorithm 1), and the paper's worked example — Table 5
// and the Figure 5 pipeline (ANY SHORTEST TRAIL) — plus a seeded
// differential of the consuming γ/τ/π against a copying, map-based
// reference implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <tuple>

#include "algebra/core_ops.h"
#include "algebra/recursive.h"
#include "algebra/solution_space.h"
#include "path/path_ops.h"
#include "workload/figure1.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

class SolutionSpaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = MakeFigure1Graph(&ids_);
    auto& i = ids_;
    p1_ = Path({i.n1, i.n2}, {i.e1});
    p2_ = Path({i.n1, i.n2, i.n3, i.n2}, {i.e1, i.e2, i.e3});
    p3_ = Path({i.n1, i.n2, i.n3}, {i.e1, i.e2});
    p5_ = Path({i.n1, i.n2, i.n4}, {i.e1, i.e4});
    p6_ = Path({i.n1, i.n2, i.n3, i.n2, i.n4}, {i.e1, i.e2, i.e3, i.e4});
    p7_ = Path({i.n2, i.n3, i.n2}, {i.e2, i.e3});
    p9_ = Path({i.n2, i.n3}, {i.e2});
    p11_ = Path({i.n2, i.n4}, {i.e4});
    p12_ = Path({i.n2, i.n3, i.n2, i.n4}, {i.e2, i.e3, i.e4});
    p13_ = Path({i.n3, i.n2, i.n4}, {i.e3, i.e4});
    // The paper's Table 5 input: the trails of Table 3 (column T).
    for (const Path& p :
         {p1_, p2_, p3_, p5_, p6_, p7_, p9_, p11_, p12_, p13_}) {
      trails_.Insert(p);
    }
  }

  PropertyGraph g_;
  Figure1Ids ids_;
  Path p1_, p2_, p3_, p5_, p6_, p7_, p9_, p11_, p12_, p13_;
  PathSet trails_;
};

// ---------------------------------------------------------------------------
// Table 4: the solution-space organization induced by each γψ.
// ---------------------------------------------------------------------------
TEST_F(SolutionSpaceTest, Table4NoneIsOnePartitionOneGroup) {
  SolutionSpace ss = GroupBy(trails_, GroupKey::kNone);
  EXPECT_EQ(ss.num_partitions(), 1u);
  EXPECT_EQ(ss.num_groups(), 1u);
  EXPECT_EQ(ss.num_paths(), 10u);
}

TEST_F(SolutionSpaceTest, Table4SourcePartitions) {
  // Sources among the 10 trails: n1, n2, n3 → 3 partitions, 1 group each.
  SolutionSpace ss = GroupBy(trails_, GroupKey::kS);
  EXPECT_EQ(ss.num_partitions(), 3u);
  EXPECT_EQ(ss.num_groups(), 3u);
  for (size_t p = 0; p < ss.num_partitions(); ++p) {
    EXPECT_EQ(ss.GroupsOfPartition(p).size(), 1u);
  }
  // Every path in a partition's group shares its First().
  for (size_t grp = 0; grp < ss.num_groups(); ++grp) {
    const auto& member_ixs = ss.PathsOfGroup(grp);
    ASSERT_FALSE(member_ixs.empty());
    NodeId source = ss.path(member_ixs[0]).First();
    for (uint32_t ix : member_ixs) {
      EXPECT_EQ(ss.path(ix).First(), source);
    }
  }
}

TEST_F(SolutionSpaceTest, Table4TargetPartitions) {
  // Targets: n2, n3, n4 → 3 partitions, 1 group per partition.
  SolutionSpace ss = GroupBy(trails_, GroupKey::kT);
  EXPECT_EQ(ss.num_partitions(), 3u);
  EXPECT_EQ(ss.num_groups(), 3u);
}

TEST_F(SolutionSpaceTest, Table4LengthGroups) {
  // Lengths 1..4 → 1 partition, 4 groups.
  SolutionSpace ss = GroupBy(trails_, GroupKey::kL);
  EXPECT_EQ(ss.num_partitions(), 1u);
  EXPECT_EQ(ss.num_groups(), 4u);
  EXPECT_EQ(ss.GroupsOfPartition(0).size(), 4u);
}

TEST_F(SolutionSpaceTest, Table4CompositeKeys) {
  EXPECT_EQ(GroupBy(trails_, GroupKey::kST).num_partitions(), 7u);
  EXPECT_EQ(GroupBy(trails_, GroupKey::kST).num_groups(), 7u);
  SolutionSpace sl = GroupBy(trails_, GroupKey::kSL);
  EXPECT_EQ(sl.num_partitions(), 3u);
  EXPECT_EQ(sl.num_groups(), 8u);  // n1:{1,2,3,4} n2:{1,2,3} n3:{2}
  SolutionSpace tl = GroupBy(trails_, GroupKey::kTL);
  EXPECT_EQ(tl.num_partitions(), 3u);
  EXPECT_EQ(tl.num_groups(), 9u);  // n2:{1,2,3} n3:{1,2} n4:{1,2,3,4}
  SolutionSpace stl = GroupBy(trails_, GroupKey::kSTL);
  EXPECT_EQ(stl.num_partitions(), 7u);
  EXPECT_EQ(stl.num_groups(), 10u);
}

TEST_F(SolutionSpaceTest, GroupByInitializesAllRanksToOne) {
  SolutionSpace ss = GroupBy(trails_, GroupKey::kSTL);
  for (size_t i = 0; i < ss.num_paths(); ++i) EXPECT_EQ(ss.PathRank(i), 1u);
  for (size_t grp = 0; grp < ss.num_groups(); ++grp) {
    EXPECT_EQ(ss.GroupRank(grp), 1u);
  }
  for (size_t p = 0; p < ss.num_partitions(); ++p) {
    EXPECT_EQ(ss.PartitionRank(p), 1u);
  }
}

TEST_F(SolutionSpaceTest, GroupByOfEmptySetIsEmptySpace) {
  SolutionSpace ss = GroupBy(PathSet(), GroupKey::kNone);
  EXPECT_EQ(ss.num_paths(), 0u);
  EXPECT_EQ(ss.num_groups(), 0u);
  EXPECT_EQ(ss.num_partitions(), 0u);
}

// ---------------------------------------------------------------------------
// Table 5: the worked solution space γST over the Table 3 trails.
// ---------------------------------------------------------------------------
TEST_F(SolutionSpaceTest, Table5SolutionSpace) {
  SolutionSpace ss = GroupBy(trails_, GroupKey::kST);
  ASSERT_EQ(ss.num_partitions(), 7u);

  // Expected partitions keyed by (source, target) → {paths, MinL(P)}.
  struct Row {
    NodeId s, t;
    std::set<size_t> lens;
    size_t min_l;
  };
  std::vector<Row> expect = {
      {ids_.n1, ids_.n2, {1, 3}, 1},  // part1: p1, p2
      {ids_.n1, ids_.n3, {2}, 2},     // part2: p3
      {ids_.n1, ids_.n4, {2, 4}, 2},  // part3: p5, p6
      {ids_.n2, ids_.n2, {2}, 2},     // part4: p7
      {ids_.n2, ids_.n3, {1}, 1},     // part5: p9
      {ids_.n2, ids_.n4, {1, 3}, 1},  // part6: p11, p12
      {ids_.n3, ids_.n4, {2}, 2},     // part7: p13
  };
  // Note: the paper's Table 5 lists MinL(part3) = 1; the paths it shows for
  // part3 (p5 len 2, p6 len 4) give MinL = 2 — we follow the definition.
  for (const Row& row : expect) {
    bool found = false;
    for (size_t p = 0; p < ss.num_partitions(); ++p) {
      const auto& groups = ss.GroupsOfPartition(p);
      ASSERT_EQ(groups.size(), 1u);
      const auto& paths = ss.PathsOfGroup(groups[0]);
      ASSERT_FALSE(paths.empty());
      PathRef first = ss.path(paths[0]);
      if (first.First() != row.s || first.Last() != row.t) continue;
      found = true;
      std::set<size_t> lens;
      for (uint32_t ix : paths) {
        EXPECT_EQ(ss.path(ix).First(), row.s);
        EXPECT_EQ(ss.path(ix).Last(), row.t);
        lens.insert(ss.path(ix).Len());
      }
      EXPECT_EQ(lens, row.lens);
      EXPECT_EQ(ss.MinLenOfPartition(p), row.min_l);
      EXPECT_EQ(ss.MinLenOfGroup(groups[0]), row.min_l);
    }
    EXPECT_TRUE(found) << "partition (" << row.s << "," << row.t << ")";
  }
}

// ---------------------------------------------------------------------------
// Table 6: τθ rank assignments.
// ---------------------------------------------------------------------------
TEST_F(SolutionSpaceTest, Table6OrderByPathOnly) {
  SolutionSpace ss = OrderBy(GroupBy(trails_, GroupKey::kST), OrderKey::kA);
  for (size_t i = 0; i < ss.num_paths(); ++i) {
    EXPECT_EQ(ss.PathRank(i), ss.path(i).Len());  // Δ′(p) = Len(p)
  }
  for (size_t grp = 0; grp < ss.num_groups(); ++grp) {
    EXPECT_EQ(ss.GroupRank(grp), 1u);  // Δ′(G) = Δ(G)
  }
  for (size_t p = 0; p < ss.num_partitions(); ++p) {
    EXPECT_EQ(ss.PartitionRank(p), 1u);  // Δ′(P) = Δ(P)
  }
}

TEST_F(SolutionSpaceTest, Table6OrderByGroupOnly) {
  SolutionSpace ss = OrderBy(GroupBy(trails_, GroupKey::kSTL), OrderKey::kG);
  for (size_t grp = 0; grp < ss.num_groups(); ++grp) {
    EXPECT_EQ(ss.GroupRank(grp), ss.MinLenOfGroup(grp));
  }
  for (size_t i = 0; i < ss.num_paths(); ++i) {
    EXPECT_EQ(ss.PathRank(i), 1u);
  }
}

TEST_F(SolutionSpaceTest, Table6OrderByPartitionOnly) {
  SolutionSpace ss = OrderBy(GroupBy(trails_, GroupKey::kST), OrderKey::kP);
  for (size_t p = 0; p < ss.num_partitions(); ++p) {
    EXPECT_EQ(ss.PartitionRank(p), ss.MinLenOfPartition(p));
  }
  for (size_t i = 0; i < ss.num_paths(); ++i) {
    EXPECT_EQ(ss.PathRank(i), 1u);
  }
}

TEST_F(SolutionSpaceTest, Table6CompositeOrderings) {
  SolutionSpace pga =
      OrderBy(GroupBy(trails_, GroupKey::kSTL), OrderKey::kPGA);
  for (size_t p = 0; p < pga.num_partitions(); ++p) {
    EXPECT_EQ(pga.PartitionRank(p), pga.MinLenOfPartition(p));
  }
  for (size_t grp = 0; grp < pga.num_groups(); ++grp) {
    EXPECT_EQ(pga.GroupRank(grp), pga.MinLenOfGroup(grp));
  }
  for (size_t i = 0; i < pga.num_paths(); ++i) {
    EXPECT_EQ(pga.PathRank(i), pga.path(i).Len());
  }
  SolutionSpace pa = OrderBy(GroupBy(trails_, GroupKey::kST), OrderKey::kPA);
  for (size_t grp = 0; grp < pa.num_groups(); ++grp) {
    EXPECT_EQ(pa.GroupRank(grp), 1u);  // G untouched by PA
  }
}

TEST_F(SolutionSpaceTest, OrderByDoesNotMutateInput) {
  SolutionSpace base = GroupBy(trails_, GroupKey::kST);
  SolutionSpace ordered = OrderBy(base, OrderKey::kA);
  (void)ordered;
  for (size_t i = 0; i < base.num_paths(); ++i) {
    EXPECT_EQ(base.PathRank(i), 1u);
  }
}

// ---------------------------------------------------------------------------
// Algorithm 1 (projection).
// ---------------------------------------------------------------------------
TEST_F(SolutionSpaceTest, ProjectAllIsIdentityOnPathSet) {
  SolutionSpace ss = GroupBy(trails_, GroupKey::kST);
  auto r = Project(ss, {std::nullopt, std::nullopt, std::nullopt});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, trails_);
}

TEST_F(SolutionSpaceTest, Figure5PipelineAnyShortestTrail) {
  // π(*,*,1)(τA(γST(ϕTrail(σ_{Knows}(Edges))))) over the Table 3 trails.
  SolutionSpace ss =
      OrderBy(GroupBy(trails_, GroupKey::kST), OrderKey::kA);
  auto r = Project(ss, {std::nullopt, std::nullopt, 1});
  ASSERT_TRUE(r.ok());
  PathSet expected;
  for (const Path& p : {p1_, p3_, p5_, p7_, p9_, p11_, p13_}) {
    expected.Insert(p);
  }
  EXPECT_EQ(*r, expected);  // §5 Step 6's exact answer
}

TEST_F(SolutionSpaceTest, ProjectWithoutOrderByPicksCanonicalSmallest) {
  // Without τ, Δ ≡ 1 and path-level ties resolve canonically (shortest,
  // then smallest ids) — the deterministic stand-in for the paper's
  // non-deterministic ANY.
  SolutionSpace ss = GroupBy(trails_, GroupKey::kST);
  auto r = Project(ss, {std::nullopt, std::nullopt, 1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 7u);
  EXPECT_TRUE(r->Contains(p1_));  // first inserted path of part1
}

TEST_F(SolutionSpaceTest, ProjectLimitsPartitionsAndGroups) {
  // γL + τG orders length-groups 1,2,3,4; π(*,2,*) keeps lengths {1,2}.
  SolutionSpace ss = OrderBy(GroupBy(trails_, GroupKey::kL), OrderKey::kG);
  auto r = Project(ss, {std::nullopt, 2, std::nullopt});
  ASSERT_TRUE(r.ok());
  for (PathRef p : *r) EXPECT_LE(p.Len(), 2u);
  EXPECT_EQ(r->size(), 7u);  // length 1: p1,p9,p11; length 2: p3,p5,p7,p13
}

TEST_F(SolutionSpaceTest, ProjectKShortestPerPartition) {
  // SHORTEST 2 WALK-style: π(*,*,2)(τA(γST(...))).
  SolutionSpace ss = OrderBy(GroupBy(trails_, GroupKey::kST), OrderKey::kA);
  auto r = Project(ss, {std::nullopt, std::nullopt, 2});
  ASSERT_TRUE(r.ok());
  // Each of the 7 partitions has ≤ 2 paths here, so all 10 come back.
  EXPECT_EQ(*r, trails_);
}

TEST_F(SolutionSpaceTest, ProjectRejectsZeroCounts) {
  SolutionSpace ss = GroupBy(trails_, GroupKey::kST);
  EXPECT_TRUE(Project(ss, {0, std::nullopt, std::nullopt})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Project(ss, {std::nullopt, 0, std::nullopt})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Project(ss, {std::nullopt, std::nullopt, 0})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SolutionSpaceTest, ProjectClampsOversizedCounts) {
  SolutionSpace ss = GroupBy(trails_, GroupKey::kST);
  auto r = Project(ss, {100, 100, 100});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, trails_);
}

TEST_F(SolutionSpaceTest, PartitionOrderingBeforeProjection) {
  // τP then π(1,*,*): keeps only the partition with the globally shortest
  // path. Two partitions tie at MinL = 1 … the stable order keeps the
  // first-occurring one, (n1→n2) = {p1, p2}.
  SolutionSpace ss = OrderBy(GroupBy(trails_, GroupKey::kST), OrderKey::kP);
  auto r = Project(ss, {1, std::nullopt, std::nullopt});
  ASSERT_TRUE(r.ok());
  PathSet expected;
  expected.Insert(p1_);
  expected.Insert(p2_);
  EXPECT_EQ(*r, expected);
}

TEST_F(SolutionSpaceTest, EndToEndFromRecursiveOperator) {
  // Full-stack sanity: the complete ϕTrail answer (12 paths — Table 3 plus
  // the two paths it omits) flows through γ/τ/π. ALL SHORTEST per pair =
  // π(*,1,*)(τG(γSTL(...))) — compare against KeepShortestPerEndpointPair.
  PathSet knows = Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Knows"));
  auto trails = Recursive(knows, PathSemantics::kTrail);
  ASSERT_TRUE(trails.ok());
  ASSERT_EQ(trails->size(), 12u);
  SolutionSpace ss =
      OrderBy(GroupBy(*trails, GroupKey::kSTL), OrderKey::kG);
  auto r = Project(ss, {std::nullopt, 1, std::nullopt});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, KeepShortestPerEndpointPair(*trails));
}

TEST_F(SolutionSpaceTest, ToTableStringMentionsEveryPath) {
  SolutionSpace ss = GroupBy(trails_, GroupKey::kST);
  std::string table = ss.ToTableString(g_);
  EXPECT_NE(table.find("part7"), std::string::npos);
  EXPECT_NE(table.find("(n1, e1, n2)"), std::string::npos);
  EXPECT_NE(table.find("MinL(P)"), std::string::npos);
}

TEST_F(SolutionSpaceTest, KeyPredicateHelpers) {
  EXPECT_TRUE(GroupKeyUsesSource(GroupKey::kSL));
  EXPECT_FALSE(GroupKeyUsesSource(GroupKey::kTL));
  EXPECT_TRUE(GroupKeyUsesTarget(GroupKey::kSTL));
  EXPECT_TRUE(GroupKeyUsesLength(GroupKey::kL));
  EXPECT_FALSE(GroupKeyUsesLength(GroupKey::kST));
  EXPECT_TRUE(OrderKeyOrdersPartitions(OrderKey::kPA));
  EXPECT_FALSE(OrderKeyOrdersPartitions(OrderKey::kGA));
  EXPECT_TRUE(OrderKeyOrdersGroups(OrderKey::kGA));
  EXPECT_TRUE(OrderKeyOrdersPaths(OrderKey::kPGA));
  EXPECT_FALSE(OrderKeyOrdersPaths(OrderKey::kPG));
  EXPECT_STREQ(GroupKeyToString(GroupKey::kSTL), "STL");
  EXPECT_STREQ(OrderKeyToString(OrderKey::kPGA), "PGA");
}

// ---------------------------------------------------------------------------
// Differential: the consuming γ/τ/π against a reference that copies every
// path and numbers partitions and groups through two std::maps — the
// original implementation, kept here as the oracle.
// ---------------------------------------------------------------------------

struct RefSpace {
  std::vector<Path> paths;
  std::vector<uint32_t> path_group;
  std::vector<uint32_t> group_partition;
  std::vector<std::vector<uint32_t>> group_paths;
  std::vector<std::vector<uint32_t>> partition_groups;
  std::vector<size_t> path_rank;
  std::vector<size_t> group_rank;
  std::vector<size_t> partition_rank;

  size_t MinLenOfGroup(size_t g) const {
    size_t min_len = std::numeric_limits<size_t>::max();
    for (uint32_t i : group_paths[g]) {
      min_len = std::min(min_len, paths[i].Len());
    }
    return min_len;
  }
  size_t MinLenOfPartition(size_t p) const {
    size_t min_len = std::numeric_limits<size_t>::max();
    for (uint32_t g : partition_groups[p]) {
      min_len = std::min(min_len, MinLenOfGroup(g));
    }
    return min_len;
  }
};

RefSpace RefGroupBy(const PathSet& s, GroupKey key) {
  RefSpace ss;
  const bool use_s = GroupKeyUsesSource(key);
  const bool use_t = GroupKeyUsesTarget(key);
  const bool use_l = GroupKeyUsesLength(key);

  using PartKey = std::pair<uint32_t, uint32_t>;
  using GrpKey = std::tuple<uint32_t, uint32_t, size_t>;
  std::map<PartKey, uint32_t> partitions;
  std::map<GrpKey, uint32_t> groups;

  auto part_key = [&](PathRef p) -> PartKey {
    return {use_s ? p.First() : kInvalidId, use_t ? p.Last() : kInvalidId};
  };
  auto grp_key = [&](PathRef p) -> GrpKey {
    return {use_s ? p.First() : kInvalidId, use_t ? p.Last() : kInvalidId,
            use_l ? p.Len() : 0};
  };

  for (PathRef p : s) {
    partitions[part_key(p)] = 0;
    groups[grp_key(p)] = 0;
  }
  uint32_t next = 0;
  for (auto& [k, v] : partitions) v = next++;
  next = 0;
  for (auto& [k, v] : groups) v = next++;

  ss.partition_groups.resize(partitions.size());
  ss.group_paths.resize(groups.size());
  ss.group_partition.resize(groups.size());
  for (const auto& [gk, gi] : groups) {
    uint32_t pi = partitions[PartKey{std::get<0>(gk), std::get<1>(gk)}];
    ss.group_partition[gi] = pi;
    ss.partition_groups[pi].push_back(gi);
  }

  for (PathRef p : s) {
    uint32_t gi = groups[grp_key(p)];
    uint32_t path_ix = static_cast<uint32_t>(ss.paths.size());
    ss.paths.emplace_back(p);
    ss.path_group.push_back(gi);
    ss.group_paths[gi].push_back(path_ix);
  }

  ss.path_rank.assign(ss.paths.size(), 1);
  ss.group_rank.assign(ss.group_paths.size(), 1);
  ss.partition_rank.assign(ss.partition_groups.size(), 1);
  return ss;
}

RefSpace RefOrderBy(const RefSpace& in, OrderKey key) {
  RefSpace ss = in;
  if (OrderKeyOrdersPartitions(key)) {
    for (size_t p = 0; p < ss.partition_groups.size(); ++p) {
      ss.partition_rank[p] = ss.MinLenOfPartition(p);
    }
  }
  if (OrderKeyOrdersGroups(key)) {
    for (size_t g = 0; g < ss.group_paths.size(); ++g) {
      ss.group_rank[g] = ss.MinLenOfGroup(g);
    }
  }
  if (OrderKeyOrdersPaths(key)) {
    for (size_t i = 0; i < ss.paths.size(); ++i) {
      ss.path_rank[i] = ss.paths[i].Len();
    }
  }
  return ss;
}

PathSet RefProject(const RefSpace& ss, const ProjectionSpec& spec) {
  auto take = [](const std::optional<size_t>& want, size_t have) {
    return (!want.has_value() || *want > have) ? have : *want;
  };

  std::vector<uint32_t> seq_p(ss.partition_groups.size());
  std::iota(seq_p.begin(), seq_p.end(), 0);
  std::stable_sort(seq_p.begin(), seq_p.end(),
                   [&](uint32_t a, uint32_t b) {
                     return ss.partition_rank[a] < ss.partition_rank[b];
                   });

  PathSet out;
  size_t max_p = take(spec.partitions, seq_p.size());
  for (size_t pi = 0; pi < max_p; ++pi) {
    std::vector<uint32_t> seq_g = ss.partition_groups[seq_p[pi]];
    std::stable_sort(seq_g.begin(), seq_g.end(),
                     [&](uint32_t a, uint32_t b) {
                       return ss.group_rank[a] < ss.group_rank[b];
                     });
    size_t max_g = take(spec.groups, seq_g.size());
    for (size_t gi = 0; gi < max_g; ++gi) {
      std::vector<uint32_t> seq_a = ss.group_paths[seq_g[gi]];
      std::stable_sort(seq_a.begin(), seq_a.end(),
                       [&](uint32_t a, uint32_t b) {
                         if (ss.path_rank[a] != ss.path_rank[b]) {
                           return ss.path_rank[a] < ss.path_rank[b];
                         }
                         return ss.paths[a] < ss.paths[b];
                       });
      size_t max_a = take(spec.paths, seq_a.size());
      for (size_t ai = 0; ai < max_a; ++ai) {
        out.Insert(ss.paths[seq_a[ai]]);
      }
    }
  }
  return out;
}

/// Asserts `ss` equals the reference byte-for-byte: paths and their order,
/// α/β and their inverse images, and every Δ rank.
void ExpectSameSpace(const SolutionSpace& ss, const RefSpace& ref,
                     const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(std::vector<Path>(ss.paths().begin(), ss.paths().end()),
            ref.paths);
  ASSERT_EQ(ss.num_groups(), ref.group_paths.size());
  ASSERT_EQ(ss.num_partitions(), ref.partition_groups.size());
  for (size_t i = 0; i < ss.num_paths(); ++i) {
    EXPECT_EQ(ss.GroupOfPath(i), ref.path_group[i]) << "path " << i;
    EXPECT_EQ(ss.PathRank(i), ref.path_rank[i]) << "path " << i;
  }
  for (size_t g = 0; g < ss.num_groups(); ++g) {
    EXPECT_EQ(ss.PartitionOfGroup(g), ref.group_partition[g]) << "group " << g;
    EXPECT_EQ(ss.PathsOfGroup(g), ref.group_paths[g]) << "group " << g;
    EXPECT_EQ(ss.GroupRank(g), ref.group_rank[g]) << "group " << g;
  }
  for (size_t p = 0; p < ss.num_partitions(); ++p) {
    EXPECT_EQ(ss.GroupsOfPartition(p), ref.partition_groups[p])
        << "partition " << p;
    EXPECT_EQ(ss.PartitionRank(p), ref.partition_rank[p])
        << "partition " << p;
  }
}

/// A set of random walks over `g` (lengths 0–5, so zero-length paths
/// occur), inserted in walk order; duplicates fold away.
PathSet RandomWalks(const PropertyGraph& g, std::mt19937_64& rng,
                    size_t count) {
  PathSet out;
  if (g.num_nodes() == 0) return out;
  for (size_t k = 0; k < count; ++k) {
    std::vector<NodeId> nodes = {
        static_cast<NodeId>(rng() % g.num_nodes())};
    std::vector<EdgeId> edges;
    const size_t len = rng() % 6;
    while (edges.size() < len) {
      auto out_edges = g.OutEdges(nodes.back());
      if (out_edges.size() == 0) break;
      const EdgeId e = out_edges[rng() % out_edges.size()];
      edges.push_back(e);
      nodes.push_back(g.Target(e));
    }
    out.Insert(Path(std::move(nodes), std::move(edges)));
  }
  return out;
}

TEST_F(SolutionSpaceTest, ConsumingOperatorsMatchCopyingReferenceFuzz) {
  constexpr GroupKey kGroupKeys[] = {
      GroupKey::kNone, GroupKey::kS,  GroupKey::kT,  GroupKey::kL,
      GroupKey::kST,   GroupKey::kSL, GroupKey::kTL, GroupKey::kSTL};
  const std::vector<std::optional<OrderKey>> order_keys = {
      std::nullopt,   OrderKey::kP,  OrderKey::kG,  OrderKey::kA,
      OrderKey::kPG,  OrderKey::kPA, OrderKey::kGA, OrderKey::kPGA};
  const std::optional<size_t> kCounts[] = {std::nullopt, 1, 2};

  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    // Figure 1 for a third of the trials, else a small random multigraph
    // dense enough for repeated endpoints and lengths.
    const size_t n = 3 + rng() % 8;
    const size_t m = 4 + rng() % 20;
    const uint64_t graph_seed = rng();
    PropertyGraph g = seed % 3 == 0
                          ? g_
                          : MakeRandomGraph(n, m, {"a", "b"}, graph_seed);
    const PathSet input = RandomWalks(g, rng, rng() % 60);
    const PathList input_paths = input.paths();

    for (GroupKey gk : kGroupKeys) {
      const RefSpace ref_grouped = RefGroupBy(input, gk);
      SolutionSpace grouped = GroupBy(input, gk);  // lvalue: copied
      ASSERT_EQ(input.paths(), input_paths) << "GroupBy changed its input";
      for (size_t i = 0; i < input.size(); ++i) {
        ASSERT_EQ(input.hash_of(i), input_paths[i].Hash());
      }

      for (const std::optional<OrderKey>& ok : order_keys) {
        const std::string where =
            "seed=" + std::to_string(seed) + " γ" + GroupKeyToString(gk) +
            (ok.has_value() ? std::string(" τ") + OrderKeyToString(*ok)
                            : std::string(" (no τ)"));
        const RefSpace ref =
            ok.has_value() ? RefOrderBy(ref_grouped, *ok) : ref_grouped;
        SolutionSpace ss =
            ok.has_value() ? OrderBy(grouped, *ok) : grouped;
        ExpectSameSpace(grouped, ref_grouped, where + " (τ input)");
        ExpectSameSpace(ss, ref, where);

        for (const auto& np : kCounts) {
          for (const auto& ng : kCounts) {
            for (const auto& na : kCounts) {
              const ProjectionSpec spec{np, ng, na};
              const PathSet want = RefProject(ref, spec);
              Result<PathSet> got = Project(ss, spec);  // lvalue: copied
              ASSERT_TRUE(got.ok()) << where;
              ASSERT_EQ(got->paths(), want.paths())
                  << where << " π" << spec.ToString();
              for (size_t i = 0; i < got->size(); ++i) {
                ASSERT_EQ(got->hash_of(i), (*got)[i].Hash());
              }
            }
          }
        }
        ExpectSameSpace(ss, ref, where + " (after π)");
        // The consuming form — what the evaluator calls — agrees too.
        Result<PathSet> moved = Project(std::move(ss), {});
        ASSERT_TRUE(moved.ok());
        EXPECT_EQ(moved->paths(), RefProject(ref, {}).paths()) << where;
      }
    }
  }
}

}  // namespace
}  // namespace pathalg

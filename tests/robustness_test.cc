// Robustness / failure-injection tests: malformed and truncated query
// strings never crash the parser; evaluation always respects budgets; the
// end-to-end facade degrades to clean Status errors on every bad input we
// can construct.

#include <gtest/gtest.h>

#include <random>

#include "algebra/recursive.h"
#include "gql/query.h"
#include "path/path_ops.h"
#include "regex/parser.h"
#include "workload/figure1.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

const char* kSeedQueries[] = {
    "MATCH ALL TRAIL p = (x)-[:Knows+]->(y)",
    "MATCH ANY SHORTEST WALK p = (?x {name:\"Moe\"})-[:Knows+]->(?y)",
    "MATCH SHORTEST 2 GROUP SIMPLE p = (x)-[(:a/:b)*|:c?]->(y) "
    "WHERE len() >= 2 AND first.name CONTAINS \"o\"",
    "MATCH ALL PARTITIONS 2 GROUPS 1 PATHS ACYCLIC p = (?x:Person)"
    "-[:Knows+]->(?y) GROUP BY SOURCE TARGET ORDER BY PARTITION PATH",
};

TEST(RobustnessTest, TruncatedQueriesNeverCrash) {
  // Every prefix of every seed query either parses or returns ParseError.
  for (const char* seed : kSeedQueries) {
    std::string query(seed);
    for (size_t len = 0; len <= query.size(); ++len) {
      auto result = ParseQuery(query.substr(0, len));
      if (!result.ok()) {
        EXPECT_TRUE(result.status().IsParseError())
            << "prefix " << len << " of: " << seed << " -> "
            << result.status().ToString();
      }
    }
  }
}

TEST(RobustnessTest, MutatedQueriesNeverCrash) {
  // Random single-character mutations: parse either succeeds or fails
  // cleanly; successful parses must evaluate (with budgets) without UB.
  PropertyGraph g = MakeFigure1Graph();
  std::mt19937_64 rng(99);
  const std::string charset =
      "abcXYZ0123456789()[]{}<>=!?*+|/:.,\"' _-";
  int parsed_ok = 0;
  for (const char* seed : kSeedQueries) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string query(seed);
      size_t pos = rng() % query.size();
      query[pos] = charset[rng() % charset.size()];
      auto parsed = ParseQuery(query);
      if (!parsed.ok()) {
        EXPECT_TRUE(parsed.status().IsParseError()) << query;
        continue;
      }
      ++parsed_ok;
      QueryOptions opts;
      opts.eval.limits.max_path_length = 8;
      opts.eval.limits.max_paths = 10'000;
      opts.eval.limits.truncate = true;
      auto built = Query::Parse(query);
      if (!built.ok()) continue;
      auto result = built->Execute(g, opts);
      // Any status is fine; the point is no crash / no hang.
      (void)result;
    }
  }
  // Sanity: some mutations must still parse (mutating a node-variable
  // letter, whitespace, etc.), or the test is vacuous.
  EXPECT_GT(parsed_ok, 10);
}

TEST(RobustnessTest, RegexFuzzPrefixes) {
  for (std::string seed :
       {"(:Knows+)|(:Likes/:Has_creator)*", ":a/:b/:c|:d+", "((:x)?)*"}) {
    for (size_t len = 0; len <= seed.size(); ++len) {
      auto r = ParseRegex(seed.substr(0, len));
      if (!r.ok()) {
        EXPECT_TRUE(r.status().IsParseError());
      }
    }
  }
}

TEST(RobustnessTest, BudgetsHoldOnAdversarialGraphs) {
  // A dense cyclic graph: every budget dimension must bind cleanly.
  PropertyGraph g = MakeRandomGraph(12, 60, {"a"}, 5);
  PathSet edges = EdgesOf(g);
  {
    EvalLimits limits;
    limits.max_paths = 100;
    limits.truncate = false;
    auto r = Recursive(edges, PathSemantics::kWalk, limits);
    EXPECT_TRUE(r.status().IsResourceExhausted());
  }
  {
    EvalLimits limits;
    limits.max_paths = 100;
    limits.truncate = true;
    auto r = Recursive(edges, PathSemantics::kWalk, limits);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->size(), 100u);
  }
  {
    EvalLimits limits;
    limits.max_path_length = 2;
    limits.truncate = true;
    auto r = Recursive(edges, PathSemantics::kTrail, limits);
    ASSERT_TRUE(r.ok());
    for (PathRef p : *r) EXPECT_LE(p.Len(), 2u);
  }
}

TEST(RobustnessTest, EmptyGraphEverywhere) {
  PropertyGraph empty;  // zero nodes, zero edges
  EXPECT_TRUE(EdgesOf(empty).empty());
  EXPECT_TRUE(NodesOf(empty).empty());
  auto r = ExecuteQuery(empty, "MATCH ALL TRAIL p = (x)-[:Knows+]->(y)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  auto seq = ExecuteQuery(
      empty, "MATCH ALL PARTITIONS ALL GROUPS ALL PATHS WALK "
             "p = (x)-[:a*]->(y) GROUP BY SOURCE ORDER BY PATH");
  ASSERT_TRUE(seq.ok());
  EXPECT_TRUE(seq->empty());
}

TEST(RobustnessTest, SingleNodeGraph) {
  GraphBuilder b;
  NodeId n = b.AddNode("Only", {{"name", Value("solo")}});
  PropertyGraph g = b.Build();
  auto star = ExecuteQuery(g, "MATCH ALL WALK p = (x)-[:a*]->(y)");
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->size(), 1u);  // the zero-length path (n)
  EXPECT_TRUE(star->Contains(Path::SingleNode(n)));
  auto plus = ExecuteQuery(g, "MATCH ALL WALK p = (x)-[:a+]->(y)");
  ASSERT_TRUE(plus.ok());
  EXPECT_TRUE(plus->empty());
}

TEST(RobustnessTest, SelfLoopGraph) {
  GraphBuilder b;
  NodeId n = b.AddNode("N");
  auto e = b.AddEdge(n, n, "a");
  ASSERT_TRUE(e.ok());
  PropertyGraph g = b.Build();
  // A self-loop: trail can use the edge once; acyclic cannot use it at
  // all ((n,e,n) repeats n); simple allows the closed loop; shortest
  // keeps it as the minimal n→n path of positive length.
  auto trail = Recursive(EdgesOf(g), PathSemantics::kTrail);
  ASSERT_TRUE(trail.ok());
  EXPECT_EQ(trail->size(), 1u);
  auto acyclic = Recursive(EdgesOf(g), PathSemantics::kAcyclic);
  ASSERT_TRUE(acyclic.ok());
  EXPECT_TRUE(acyclic->empty());
  auto simple = Recursive(EdgesOf(g), PathSemantics::kSimple);
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(simple->size(), 1u);
  auto shortest = Recursive(EdgesOf(g), PathSemantics::kShortest);
  ASSERT_TRUE(shortest.ok());
  EXPECT_EQ(shortest->size(), 1u);
  // Walk diverges on the loop.
  auto walk = Recursive(EdgesOf(g), PathSemantics::kWalk,
                        {.max_path_length = 16});
  EXPECT_TRUE(walk.status().IsResourceExhausted());
}

TEST(RobustnessTest, ParallelEdges) {
  GraphBuilder b;
  NodeId u = b.AddNode("N");
  NodeId v = b.AddNode("N");
  auto e1 = b.AddEdge(u, v, "a");
  auto e2 = b.AddEdge(u, v, "a");
  ASSERT_TRUE(e1.ok() && e2.ok());
  PropertyGraph g = b.Build();
  // Both parallel edges are distinct paths; both are per-pair shortest.
  auto shortest = Recursive(EdgesOf(g), PathSemantics::kShortest);
  ASSERT_TRUE(shortest.ok());
  EXPECT_EQ(shortest->size(), 2u);
  // A trail may use both parallel edges? No — u→v→? has no way back.
  auto trail = Recursive(EdgesOf(g), PathSemantics::kTrail);
  ASSERT_TRUE(trail.ok());
  EXPECT_EQ(trail->size(), 2u);
}

}  // namespace
}  // namespace pathalg

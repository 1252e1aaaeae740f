// Tests for the query-engine subsystem (src/engine): query-text
// normalization, the LRU plan cache (hit/miss/eviction), QueryEngine
// session behavior incl. error paths, and the skewed social-graph
// generator the replay workloads run on.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "engine/plan_cache.h"
#include "engine/query_engine.h"
#include "engine/workload_file.h"
#include "gql/query.h"
#include "workload/figure1.h"
#include "workload/generators.h"

namespace pathalg {
namespace engine {
namespace {

constexpr const char* kShortestTrail =
    "MATCH ANY SHORTEST TRAIL p = (x)-[:Knows+]->(y)";

// --- NormalizeQueryText ----------------------------------------------------

TEST(NormalizeQueryTextTest, CollapsesWhitespace) {
  EXPECT_EQ(NormalizeQueryText("MATCH   ALL \t WALK p = (x)-[:a]->(y)"),
            NormalizeQueryText("MATCH ALL WALK p = (x)-[:a]->(y)"));
  EXPECT_EQ(NormalizeQueryText("  MATCH ALL p = (x)-[:a]->(y)  "),
            NormalizeQueryText("MATCH ALL p = (x)-[:a]->(y)"));
}

TEST(NormalizeQueryTextTest, CanonicalizesQuotes) {
  EXPECT_EQ(NormalizeQueryText("MATCH ALL p = (?x {name:'Moe'})-[:a]->(y)"),
            NormalizeQueryText(
                "MATCH ALL p = (?x {name:\"Moe\"})-[:a]->(y)"));
}

TEST(NormalizeQueryTextTest, PreservesIdentifierCase) {
  // Labels and property keys are case-sensitive; normalization must not
  // merge them.
  EXPECT_NE(NormalizeQueryText("MATCH ALL p = (x)-[:Knows]->(y)"),
            NormalizeQueryText("MATCH ALL p = (x)-[:knows]->(y)"));
}

TEST(NormalizeQueryTextTest, NormalizedFormParsesToSameResult) {
  PropertyGraph g = MakeFigure1Graph();
  const std::string original =
      "MATCH ALL SIMPLE p = (?x {name:'Moe'})"
      "-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:\"Apu\"})";
  const std::string normalized = NormalizeQueryText(original);
  auto r1 = ExecuteQuery(g, original);
  auto r2 = ExecuteQuery(g, normalized);
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(*r1, *r2);
  // Idempotent: normalizing a normalized query is a fixpoint.
  EXPECT_EQ(NormalizeQueryText(normalized), normalized);
}

TEST(NormalizeQueryTextTest, UnlexableTextIsStrippedOnly) {
  EXPECT_EQ(NormalizeQueryText("  MATCH @ bogus  "), "MATCH @ bogus");
}

// --- PlanCache -------------------------------------------------------------

PreparedQueryPtr MakeEntry(const std::string& text) {
  auto p = std::make_shared<PreparedQuery>();
  p->query = Query::Parse(text).value();
  p->effective_plan = p->query.plan();
  return p;
}

TEST(PlanCacheTest, HitMissAndStats) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", MakeEntry(kShortestTrail));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  cache.Put("a", MakeEntry(kShortestTrail));
  cache.Put("b", MakeEntry(kShortestTrail));
  ASSERT_NE(cache.Get("a"), nullptr);  // promotes "a"; "b" is now LRU
  cache.Put("c", MakeEntry(kShortestTrail));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);  // evicted
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST(PlanCacheTest, PutReplacesExistingKey) {
  PlanCache cache(2);
  cache.Put("a", MakeEntry(kShortestTrail));
  PreparedQueryPtr replacement = MakeEntry(kShortestTrail);
  cache.Put("a", replacement);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("a"), replacement);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  cache.Put("a", MakeEntry(kShortestTrail));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(PlanCacheTest, ClearDropsEntriesKeepsStats) {
  PlanCache cache(4);
  cache.Put("a", MakeEntry(kShortestTrail));
  (void)cache.Get("a");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.Get("a"), nullptr);
}

// --- QueryEngine -----------------------------------------------------------

TEST(QueryEngineTest, ExecuteMissThenHit) {
  QueryEngine eng(MakeFigure1Graph());
  ExecStats first, second;
  auto r1 = eng.Execute(kShortestTrail, &first);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.result_paths, 9u);

  // Different spelling, same normalized key: must hit.
  auto r2 = eng.Execute("MATCH  ANY  SHORTEST  TRAIL p = (x)-[:Knows+]->(y)",
                        &second);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.parse_us, 0u);     // skipped on a hit
  EXPECT_EQ(second.optimize_us, 0u);  // skipped on a hit
  EXPECT_EQ(*r1, *r2);

  EXPECT_EQ(eng.session_stats().queries, 2u);
  EXPECT_EQ(eng.session_stats().errors, 0u);
  EXPECT_EQ(eng.cache().stats().hits, 1u);
  EXPECT_EQ(eng.cache().stats().misses, 1u);
}

TEST(QueryEngineTest, GraphSwapKeepsSharedCacheButInvalidatesStatsPlans) {
  // Without optimizer stats, prepared plans are graph-independent: a
  // graph swap must keep hitting the cache (the server's shared-cache
  // contract across sessions and graphs).
  QueryEngine plain(MakeFigure1Graph());
  ExecStats s1, s2;
  ASSERT_TRUE(plain.Execute(kShortestTrail, &s1).ok());
  EXPECT_FALSE(s1.cache_hit);
  plain.SetGraph(
      std::make_shared<const PropertyGraph>(MakeCycleGraph(4, "Knows")));
  ASSERT_TRUE(plain.Execute(kShortestTrail, &s2).ok());
  EXPECT_TRUE(s2.cache_hit);

  // With optimizer stats set, prepared plans bake in graph-derived
  // cardinalities, so the same swap must miss (per-graph token in the
  // cache key) — a live-mutation republish would otherwise keep serving
  // plans optimized for the pre-mutation graph.
  const GraphStats stats = GraphStats::Collect(MakeFigure1Graph());
  EngineOptions opts;
  opts.query.optimizer.stats = &stats;
  QueryEngine tuned(MakeFigure1Graph(), opts);
  ExecStats t1, t2, t3;
  ASSERT_TRUE(tuned.Execute(kShortestTrail, &t1).ok());
  EXPECT_FALSE(t1.cache_hit);
  ASSERT_TRUE(tuned.Execute(kShortestTrail, &t2).ok());
  EXPECT_TRUE(t2.cache_hit);  // same graph: still hits
  // Re-setting the *same* graph pointer must not invalidate…
  tuned.SetGraph(tuned.shared_graph());
  ASSERT_TRUE(tuned.Execute(kShortestTrail, &t3).ok());
  EXPECT_TRUE(t3.cache_hit);
  // …but a different graph must.
  ExecStats t4;
  tuned.SetGraph(
      std::make_shared<const PropertyGraph>(MakeCycleGraph(4, "Knows")));
  ASSERT_TRUE(tuned.Execute(kShortestTrail, &t4).ok());
  EXPECT_FALSE(t4.cache_hit);
}

TEST(QueryEngineTest, ExecuteFillsEvalStats) {
  QueryEngine eng(MakeFigure1Graph());
  ExecStats stats;
  ASSERT_TRUE(eng.Execute(kShortestTrail, &stats).ok());
  EXPECT_GT(stats.eval.nodes_evaluated, 0u);
  EXPECT_GT(stats.eval.peak_intermediate_paths, 0u);
  EXPECT_GT(stats.eval.op_count[static_cast<size_t>(PlanKind::kRecursive)],
            0u);
}

// The three served point-read shapes must stay on the index access paths:
// the start-node filter seeks the label CSR instead of scanning every
// edge, and the second hop probes Last(p) instead of materializing its
// label atom. A regression to scan-then-filter shows up as a peak of
// every edge in the graph (3,600 here) for an answer of a handful of
// paths.
TEST(QueryEngineTest, PointReadShapesSeekInsteadOfScanning) {
  auto graph = BuildWorkloadGraph(
      "social persons=400 messages=800 ring=2 chords=400 likes=2 seed=7");
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto shared = std::make_shared<const PropertyGraph>(std::move(*graph));
  QueryEngine eng(shared);
  // Reference: the literal reading — unoptimized plan, naive ϕ (which
  // never fuses).
  EngineOptions literal;
  literal.query.optimize = false;
  literal.query.eval.engine = PhiEngine::kNaive;
  QueryEngine reference(shared, literal);
  size_t answers = 0;
  for (const char* person : {"person0", "person17", "person399"}) {
    const std::string name = std::string("\"") + person + "\"";
    for (const std::string& text :
         {"MATCH ALL WALK p = (?x {name:" + name + "})-[:Knows/:Knows]->(?y)",
          "MATCH ALL WALK p = (?x {name:" + name + "})-[:Knows]->(?y)",
          "MATCH ALL WALK p = (?x)-[:Likes/:Has_creator]->(?y) WHERE "
          "first.name = " + name}) {
      ExecStats stats, ref_stats;
      auto r = eng.Execute(text, &stats);
      ASSERT_TRUE(r.ok()) << r.status() << " " << text;
      auto ref = reference.Execute(text, &ref_stats);
      ASSERT_TRUE(ref.ok()) << ref.status() << " " << text;
      EXPECT_EQ(r->size(), ref->size()) << text;
      EXPECT_LT(stats.eval.peak_intermediate_paths, 100u) << text;
      EXPECT_GT(stats.eval.label_scan_hits, 0u) << text;
      EXPECT_EQ(stats.eval.op_us[static_cast<size_t>(PlanKind::kEdgesScan)],
                0u)
          << text;
      answers += r->size();
    }
  }
  EXPECT_GT(answers, 0u);
}

/// The social graph the served closure_analytics workload runs on.
std::shared_ptr<const PropertyGraph> ClosureAnalyticsGraph() {
  auto graph = BuildWorkloadGraph(
      "social persons=100 messages=200 ring=2 chords=100 likes=2 seed=7");
  if (!graph.ok()) return nullptr;
  return std::make_shared<const PropertyGraph>(std::move(*graph));
}

// The closure_analytics source-filtered closures: select-into-closure
// moves each start-node filter into ϕ, and the answers stay pinned on both
// ϕ engines (kNaive runs the unseeded closure and filters it).
TEST(QueryEngineTest, SourceFilteredClosuresSeedThePhi) {
  const auto shared = ClosureAnalyticsGraph();
  ASSERT_NE(shared, nullptr);
  const struct {
    const char* text;
    size_t answer;
    const char* closure;
  } cases[] = {
      {"MATCH ANY SHORTEST p = (?x {name:\"person3\"})-[:Knows+]->(?y)", 100,
       "ϕ[SHORTEST; first.name = \"person3\"]"},
      {"MATCH ALL SHORTEST p = (?x {name:\"person3\"})-[:Knows+]->"
       "(?y {name:\"person60\"})",
       2, "ϕ[SHORTEST; first.name = \"person3\"]"},
      {"MATCH ALL PARTITIONS ALL GROUPS 1 PATHS SHORTEST p = "
       "(?x {name:\"person2\"})-[(:Knows)+]->(?y) GROUP BY TARGET ORDER BY "
       "PATH",
       100, "ϕ[SHORTEST; first.name = \"person2\"]"},
      {"MATCH ANY SHORTEST p = (?x {name:\"person1\"})-[(:Knows/:Likes/"
       ":Has_creator)+]->(?y)",
       91, "ϕ[SHORTEST; first.name = \"person1\"]"},
  };
  for (const auto& c : cases) {
    std::optional<PathSet> optimized_answer;
    for (PhiEngine engine : {PhiEngine::kOptimized, PhiEngine::kNaive}) {
      EngineOptions options;
      options.query.eval.engine = engine;
      QueryEngine eng(shared, options);
      auto prepared = eng.Prepare(c.text);
      ASSERT_TRUE(prepared.ok()) << prepared.status();
      const std::string algebra =
          (*prepared)->effective_plan->ToAlgebraString();
      EXPECT_NE(algebra.find(c.closure), std::string::npos) << algebra;
      auto r = eng.ExecutePrepared(**prepared);
      ASSERT_TRUE(r.ok()) << r.status() << " " << c.text;
      EXPECT_EQ(r->size(), c.answer) << c.text;
      if (optimized_answer.has_value()) {
        EXPECT_EQ(*r, *optimized_answer) << c.text;
      } else {
        optimized_answer = std::move(*r);
      }
    }
  }
}

// A budget trip names the semantics it enumerated: only WALK answers can
// be infinite. The text is the same on every engine.
TEST(QueryEngineTest, BudgetMessageNamesTheSemantics) {
  const auto shared = ClosureAnalyticsGraph();
  ASSERT_NE(shared, nullptr);
  const struct {
    const char* text;
    const char* message;
  } cases[] = {
      {"MATCH ANY TRAIL p = (?x {name:\"person3\"})-[:Knows+]->(?y)",
       "path enumeration exceeded budget (max_paths); the TRAIL answer set "
       "is finite but larger than the budget — narrow the query, raise the "
       "budget, or use truncate=true"},
      {"MATCH ALL WALK p = (?x {name:\"person3\"})-[:Knows+]->(?y)",
       "path enumeration exceeded budget (max_paths); the answer set may be "
       "infinite under WALK semantics — use a restrictor, a length bound, "
       "or truncate=true"},
  };
  for (const auto& c : cases) {
    for (PhiEngine engine : {PhiEngine::kOptimized, PhiEngine::kNaive}) {
      EngineOptions options;
      options.query.eval.engine = engine;
      options.query.eval.limits.max_paths = 2000;
      QueryEngine eng(shared, options);
      auto r = eng.Execute(c.text);
      ASSERT_FALSE(r.ok()) << c.text;
      EXPECT_TRUE(r.status().IsResourceExhausted());
      EXPECT_EQ(r.status().message(), c.message) << c.text;
    }
  }
}

TEST(QueryEngineTest, ParseErrorIsCountedAndNotCached) {
  QueryEngine eng(MakeFigure1Graph());
  ExecStats stats;
  auto r = eng.Execute("SELECT * FROM paths", &stats);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_EQ(eng.session_stats().errors, 1u);
  EXPECT_EQ(eng.cache().size(), 0u);  // failed parses are not cached

  // Same bad query again: still a miss (and still an error).
  auto r2 = eng.Execute("SELECT * FROM paths", &stats);
  EXPECT_FALSE(r2.ok());
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_EQ(eng.session_stats().errors, 2u);
}

TEST(QueryEngineTest, EvalErrorSurfacesButPlanStaysCached) {
  // ϕWalk over a cycle with a tight budget and truncate=false errors at
  // evaluation time; the *plan* is still valid and stays cached.
  EngineOptions options;
  options.query.eval.limits.max_paths = 4;
  options.query.eval.limits.truncate = false;
  options.query.optimize = false;  // keep ϕWalk (no any-shortest rescue)
  QueryEngine eng(MakeCycleGraph(3), options);
  const char* q = "MATCH ALL WALK p = (?x)-[:Knows+]->(?y)";
  ExecStats stats;
  auto r1 = eng.Execute(q, &stats);
  EXPECT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsResourceExhausted()) << r1.status();
  EXPECT_EQ(eng.cache().size(), 1u);
  auto r2 = eng.Execute(q, &stats);
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(stats.cache_hit);  // plan came from the cache; eval failed
  EXPECT_EQ(eng.session_stats().errors, 2u);
}

TEST(QueryEngineTest, PrepareExposesOptimizerProvenance) {
  QueryEngine eng(MakeFigure1Graph());
  // ANY SHORTEST over WALK triggers the any-shortest rewrite
  // (ϕWalk → ϕShortest), so provenance must be non-empty.
  auto prepared = eng.Prepare("MATCH ANY SHORTEST p = (x)-[:Knows+]->(y)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_NE((*prepared)->effective_plan, nullptr);
  EXPECT_FALSE((*prepared)->optimizer_rules.empty());
}

TEST(QueryEngineTest, ExecutePreparedSurvivesEviction) {
  EngineOptions options;
  options.plan_cache_capacity = 1;
  QueryEngine eng(MakeFigure1Graph(), options);
  auto prepared = eng.Prepare(kShortestTrail);
  ASSERT_TRUE(prepared.ok());
  // Evict it.
  ASSERT_TRUE(eng.Prepare("MATCH ALL WALK p = (?x)-[:Knows]->(?y)").ok());
  EXPECT_EQ(eng.cache().stats().evictions, 1u);
  // The shared_ptr keeps the prepared query alive and runnable.
  auto r = eng.ExecutePrepared(**prepared);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 9u);
}

TEST(QueryEngineTest, SetGraphAnswersOnTheNewGraphAndKeepsSession) {
  QueryEngine eng(MakeFigure1Graph());
  ASSERT_TRUE(eng.Execute(kShortestTrail).ok());
  eng.SetGraph(std::make_shared<const PropertyGraph>(MakeChainGraph(4)));
  ExecStats stats;
  auto r = eng.Execute("MATCH ALL WALK p = (?x)-[:Knows]->(?y)", &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 3u);  // chain of 4 nodes = 3 single edges
  EXPECT_EQ(eng.session_stats().queries, 2u);  // session survives the swap
}

TEST(QueryEngineTest, CacheDisabledStillExecutes) {
  EngineOptions options;
  options.plan_cache_capacity = 0;
  QueryEngine eng(MakeFigure1Graph(), options);
  ExecStats s1, s2;
  ASSERT_TRUE(eng.Execute(kShortestTrail, &s1).ok());
  ASSERT_TRUE(eng.Execute(kShortestTrail, &s2).ok());
  EXPECT_FALSE(s2.cache_hit);
  EXPECT_GT(s2.parse_us + s2.optimize_us + s2.eval_us, 0u);
}

// --- MakeSkewedSocialGraph -------------------------------------------------

TEST(SkewedSocialGraphTest, LabelsAndDeterminism) {
  SkewedSocialGraphOptions options;
  options.num_persons = 100;
  options.knows_per_person = 3;
  options.follows_per_person = 2;
  options.seed = 7;
  PropertyGraph g1 = MakeSkewedSocialGraph(options);
  PropertyGraph g2 = MakeSkewedSocialGraph(options);
  EXPECT_EQ(g1.num_nodes(), 100u);
  EXPECT_EQ(g1.num_edges(), 100u * (3 + 2));
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  EXPECT_NE(g1.FindLabel("Person"), kNoLabel);
  EXPECT_NE(g1.FindLabel("Knows"), kNoLabel);
  EXPECT_NE(g1.FindLabel("Follows"), kNoLabel);
  EXPECT_EQ(g1.EdgesWithLabel(g1.FindLabel("Knows")).size(), 300u);
  EXPECT_EQ(g1.EdgesWithLabel(g1.FindLabel("Follows")).size(), 200u);
  // Same seed -> identical edge lists.
  for (EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.Source(e), g2.Source(e));
    EXPECT_EQ(g1.Target(e), g2.Target(e));
  }
  for (NodeId n = 0; n < g1.num_nodes(); ++n) {
    EXPECT_EQ(g1.NodeLabel(n), "Person");
  }
}

TEST(SkewedSocialGraphTest, DegreesAreSkewed) {
  SkewedSocialGraphOptions options;
  options.num_persons = 500;
  options.knows_per_person = 4;
  options.follows_per_person = 2;
  PropertyGraph g = MakeSkewedSocialGraph(options);
  size_t max_in = 0, total_in = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    max_in = std::max(max_in, g.InEdges(n).size());
    total_in += g.InEdges(n).size();
  }
  const double mean_in =
      static_cast<double>(total_in) / static_cast<double>(g.num_nodes());
  // Preferential attachment concentrates in-degree: the biggest hub must
  // sit far above the mean (uniform targets would put it within ~2-3x).
  EXPECT_GT(static_cast<double>(max_in), 5.0 * mean_in)
      << "max_in=" << max_in << " mean_in=" << mean_in;
  EXPECT_EQ(total_in, g.num_edges());
}

}  // namespace
}  // namespace engine
}  // namespace pathalg

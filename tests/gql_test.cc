// Tests for the GQL surface: lexer, both parser forms (§2.3 standard and
// §7.1 extended), the Table 7 selector translations, the §7.2 plan text,
// and the end-to-end Query facade on the Figure 1 graph.

#include <gtest/gtest.h>

#include "gql/lexer.h"
#include "gql/query.h"
#include "gql/translate.h"
#include "workload/figure1.h"

namespace pathalg {
namespace {

ParsedQuery MustParseQuery(std::string_view text) {
  auto r = ParseQuery(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : ParsedQuery{};
}

TEST(LexerTest, TokenKinds) {
  auto toks = Tokenize("MATCH p = (?x {name:\"Moe\", age:30})-[:a+]->(y)");
  ASSERT_TRUE(toks.ok());
  EXPECT_TRUE((*toks)[0].IsKeyword("match"));
  EXPECT_EQ((*toks)[1].text, "p");
  EXPECT_TRUE((*toks)[2].IsSymbol("="));
  // String token contents have quotes stripped.
  bool found_moe = false, found_30 = false, found_edge_open = false;
  for (const Token& t : *toks) {
    if (t.kind == TokKind::kString && t.text == "Moe") found_moe = true;
    if (t.kind == TokKind::kInt && t.int_value == 30) found_30 = true;
    if (t.IsSymbol("-[")) found_edge_open = true;
  }
  EXPECT_TRUE(found_moe);
  EXPECT_TRUE(found_30);
  EXPECT_TRUE(found_edge_open);
  EXPECT_EQ(toks->back().kind, TokKind::kEnd);
}

TEST(LexerTest, MultiCharSymbolsAndErrors) {
  auto toks = Tokenize("a != b <> c <= d >= e ]->");
  ASSERT_TRUE(toks.ok());
  int multi = 0;
  for (const Token& t : *toks) {
    if (t.IsSymbol("!=") || t.IsSymbol("<>") || t.IsSymbol("<=") ||
        t.IsSymbol(">=") || t.IsSymbol("]->")) {
      ++multi;
    }
  }
  EXPECT_EQ(multi, 5);
  EXPECT_TRUE(Tokenize("\"unterminated").status().IsParseError());
  EXPECT_TRUE(Tokenize("m@tch").status().IsParseError());
}

TEST(GqlParserTest, StandardFormDefaults) {
  ParsedQuery q = MustParseQuery("MATCH p = (?x)-[:Knows+]->(?y)");
  EXPECT_FALSE(q.extended);
  EXPECT_EQ(q.selector.kind, SelectorKind::kAll);
  EXPECT_EQ(q.restrictor, PathSemantics::kWalk);
  EXPECT_EQ(q.path_var, "p");
  EXPECT_EQ(q.source.var, "x");
  EXPECT_EQ(q.target.var, "y");
  ASSERT_NE(q.regex, nullptr);
  EXPECT_EQ(q.regex->kind(), RegexKind::kPlus);
  EXPECT_EQ(q.where, nullptr);
}

TEST(GqlParserTest, SelectorsParse) {
  struct Case {
    const char* text;
    SelectorKind kind;
    size_t k;
  };
  for (const Case& c : std::vector<Case>{
           {"MATCH ALL TRAIL p = (x)-[:a]->(y)", SelectorKind::kAll, 1},
           {"MATCH ANY SHORTEST WALK p = (x)-[:a]->(y)",
            SelectorKind::kAnyShortest, 1},
           {"MATCH ALL SHORTEST TRAIL p = (x)-[:a]->(y)",
            SelectorKind::kAllShortest, 1},
           {"MATCH ANY SIMPLE p = (x)-[:a]->(y)", SelectorKind::kAny, 1},
           {"MATCH ANY 3 ACYCLIC p = (x)-[:a]->(y)", SelectorKind::kAnyK, 3},
           {"MATCH SHORTEST 2 WALK p = (x)-[:a]->(y)",
            SelectorKind::kShortestK, 2},
           {"MATCH SHORTEST 2 GROUP WALK p = (x)-[:a]->(y)",
            SelectorKind::kShortestKGroup, 2}}) {
    ParsedQuery q = MustParseQuery(c.text);
    EXPECT_EQ(q.selector.kind, c.kind) << c.text;
    if (c.k != 1) {
      EXPECT_EQ(q.selector.k, c.k) << c.text;
    }
  }
}

TEST(GqlParserTest, RestrictorsParse) {
  EXPECT_EQ(MustParseQuery("MATCH WALK p = (x)-[:a]->(y)").restrictor,
            PathSemantics::kWalk);
  EXPECT_EQ(MustParseQuery("MATCH TRAIL p = (x)-[:a]->(y)").restrictor,
            PathSemantics::kTrail);
  EXPECT_EQ(MustParseQuery("MATCH SIMPLE p = (x)-[:a]->(y)").restrictor,
            PathSemantics::kSimple);
  EXPECT_EQ(MustParseQuery("MATCH ACYCLIC p = (x)-[:a]->(y)").restrictor,
            PathSemantics::kAcyclic);
}

TEST(GqlParserTest, NodePatternProperties) {
  ParsedQuery q = MustParseQuery(
      "MATCH p = (?x {name:\"Moe\"})-[:Knows+]->(?y {name:\"Apu\"})");
  ASSERT_EQ(q.source.properties.size(), 1u);
  EXPECT_EQ(q.source.properties[0].first, "name");
  EXPECT_EQ(q.source.properties[0].second, Value("Moe"));
  ASSERT_EQ(q.target.properties.size(), 1u);
  EXPECT_EQ(q.target.properties[0].second, Value("Apu"));
  ConditionPtr cond = q.EndpointCondition();
  ASSERT_NE(cond, nullptr);
  EXPECT_EQ(cond->ToString(),
            "(first.name = \"Moe\" AND last.name = \"Apu\")");
}

TEST(GqlParserTest, NodeLabelPatterns) {
  ParsedQuery q = MustParseQuery(
      "MATCH p = (?x:Person {name:\"Moe\"})-[:Likes]->(?y:Message)");
  EXPECT_EQ(q.source.label, "Person");
  EXPECT_EQ(q.target.label, "Message");
  ConditionPtr cond = q.EndpointCondition();
  ASSERT_NE(cond, nullptr);
  EXPECT_EQ(cond->ToString(),
            "((label(first) = \"Person\" AND first.name = \"Moe\") AND "
            "label(last) = \"Message\")");
  // End-to-end on Figure 1: Moe likes one message (n6).
  Figure1Ids ids;
  PropertyGraph g = MakeFigure1Graph(&ids);
  auto r = ExecuteQuery(
      g, "MATCH ALL WALK p = (?x:Person {name:\"Moe\"})-[:Likes]->"
         "(?y:Message)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  // A label that matches nothing:
  auto none = ExecuteQuery(
      g, "MATCH ALL WALK p = (?x:Robot)-[:Likes]->(?y)");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // Malformed label:
  EXPECT_TRUE(
      ParseQuery("MATCH p = (x:)-[:a]->(y)").status().IsParseError());
}

TEST(GqlParserTest, WhereConditionParses) {
  ParsedQuery q = MustParseQuery(
      "MATCH TRAIL p = (x)-[:Knows+]->(y) "
      "WHERE label(first) = \"Person\" AND len() >= 2 OR "
      "NOT (node(2).name = \"Homer\")");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->ToString(),
            "((label(first) = \"Person\" AND len() >= 2) OR "
            "NOT (node(2).name = \"Homer\"))");
}

TEST(GqlParserTest, ExtendedFormParses) {
  // The paper's §7.1 example query.
  ParsedQuery q = MustParseQuery(
      "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS "
      "TRAIL p = (?x)-[(:Knows)*]->(?y) "
      "GROUP BY TARGET ORDER BY PATH");
  EXPECT_TRUE(q.extended);
  EXPECT_FALSE(q.projection.partitions.has_value());
  EXPECT_FALSE(q.projection.groups.has_value());
  EXPECT_EQ(q.projection.paths, 1u);
  EXPECT_EQ(q.restrictor, PathSemantics::kTrail);
  EXPECT_EQ(q.group_by, GroupKey::kT);
  ASSERT_TRUE(q.order_by.has_value());
  EXPECT_EQ(*q.order_by, OrderKey::kA);
  // Its plan is π(*,*,1)(τA(γT(ϕTrail(σKnows(E)) ∪ Nodes))).
  PlanPtr plan = q.ToPlan();
  EXPECT_EQ(plan->ToAlgebraString(),
            "π(*,*,1)(τ[A](γ[T]((ϕ[TRAIL](σ[label(edge(1)) = \"Knows\"]"
            "(Edges(G))) ∪ Nodes(G)))))");
}

TEST(GqlParserTest, ExtendedFormShortestRestrictorAndKeys) {
  ParsedQuery q = MustParseQuery(
      "MATCH 2 PARTITIONS 1 GROUPS ALL PATHS SHORTEST "
      "p = (x)-[:Knows+]->(y) GROUP BY SOURCE TARGET LENGTH "
      "ORDER BY PARTITION GROUP PATH");
  EXPECT_EQ(q.restrictor, PathSemantics::kShortest);
  EXPECT_EQ(q.projection.partitions, 2u);
  EXPECT_EQ(q.projection.groups, 1u);
  EXPECT_EQ(q.group_by, GroupKey::kSTL);
  EXPECT_EQ(*q.order_by, OrderKey::kPGA);
}

TEST(GqlParserTest, ParseErrors) {
  EXPECT_TRUE(ParseQuery("SELECT * FROM t").status().IsParseError());
  EXPECT_TRUE(ParseQuery("MATCH p (x)-[:a]->(y)").status().IsParseError());
  EXPECT_TRUE(ParseQuery("MATCH p = (x)-[:a]-(y)").status().IsParseError());
  EXPECT_TRUE(ParseQuery("MATCH p = (x)-[]->(y)").status().IsParseError());
  EXPECT_TRUE(
      ParseQuery("MATCH p = (x)-[:a]->(y) WHERE").status().IsParseError());
  EXPECT_TRUE(ParseQuery("MATCH ANY 0 WALK p = (x)-[:a]->(y)")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseQuery("MATCH 0 PARTITIONS ALL GROUPS ALL PATHS WALK "
                         "p = (x)-[:a]->(y)")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseQuery("MATCH ALL PARTITIONS ALL GROUPS ALL PATHS WALK "
                         "p = (x)-[:a]->(y) GROUP BY")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(
      ParseQuery("MATCH p = (x)-[:a]->(y) extra").status().IsParseError());
}

// ---------------------------------------------------------------------------
// Table 7 translations.
// ---------------------------------------------------------------------------
TEST(TranslateTest, Table7Shapes) {
  PlanPtr re = PlanNode::Recursive(
      PathSemantics::kWalk,
      PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan()));
  struct Case {
    Selector sel;
    const char* algebra;
  };
  const std::string phi =
      "ϕ[WALK](σ[label(edge(1)) = \"Knows\"](Edges(G)))";
  std::vector<Case> cases = {
      {{SelectorKind::kAll, 1}, "π(*,*,*)(γ[](%))"},
      {{SelectorKind::kAnyShortest, 1}, "π(*,*,1)(τ[A](γ[ST](%)))"},
      {{SelectorKind::kAllShortest, 1}, "π(*,1,*)(τ[G](γ[STL](%)))"},
      {{SelectorKind::kAny, 1}, "π(*,*,1)(γ[ST](%))"},
      {{SelectorKind::kAnyK, 4}, "π(*,*,4)(γ[ST](%))"},
      {{SelectorKind::kShortestK, 4}, "π(*,*,4)(τ[A](γ[ST](%)))"},
      {{SelectorKind::kShortestKGroup, 4}, "π(*,4,*)(τ[G](γ[STL](%)))"},
  };
  for (const Case& c : cases) {
    PlanPtr plan = TranslateSelector(c.sel, re);
    std::string want(c.algebra);
    want.replace(want.find('%'), 1, phi);
    EXPECT_EQ(plan->ToAlgebraString(), want) << c.sel.ToString();
  }
}

TEST(TranslateTest, All28CombinationsValidate) {
  // Every selector × restrictor combination yields a well-typed plan.
  std::vector<Selector> selectors = {
      {SelectorKind::kAll, 1},       {SelectorKind::kAnyShortest, 1},
      {SelectorKind::kAllShortest, 1}, {SelectorKind::kAny, 1},
      {SelectorKind::kAnyK, 2},      {SelectorKind::kShortestK, 2},
      {SelectorKind::kShortestKGroup, 2}};
  std::vector<PathSemantics> restrictors = {
      PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
      PathSemantics::kSimple};
  int count = 0;
  for (const Selector& sel : selectors) {
    for (PathSemantics r : restrictors) {
      PlanPtr re = PlanNode::Recursive(
          r, PlanNode::Select(EdgeLabelEq(1, "Knows"),
                              PlanNode::EdgesScan()));
      PlanPtr plan = TranslateSelector(sel, re);
      EXPECT_TRUE(plan->Validate().ok());
      ++count;
    }
  }
  EXPECT_EQ(count, 28);
}

// ---------------------------------------------------------------------------
// §7.2 plan text.
// ---------------------------------------------------------------------------
TEST(PlanTextTest, ExtendedFormMatchesPaperStyle) {
  ParsedQuery q = MustParseQuery(
      "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS "
      "TRAIL p = (?x)-[(:Knows)+]->(?y) "
      "GROUP BY TARGET ORDER BY PATH");
  EXPECT_EQ(q.ToPlanText(),
            "Projection (ALL PARTITIONS ALL GROUPS 1 PATHS)\n"
            "OrderBy (Path)\n"
            "Group (Target)\n"
            "Restrictor (TRAIL)\n"
            "-> Recursive Join (restrictor: TRAIL)\n"
            "   -> Select: (label(edge(1)) = \"Knows\" , EDGES(G))\n");
}

TEST(PlanTextTest, StandardFormShowsSelector) {
  ParsedQuery q =
      MustParseQuery("MATCH ANY SHORTEST TRAIL p = (x)-[:Knows+]->(y)");
  std::string text = q.ToPlanText();
  EXPECT_NE(text.find("Selector (ANY SHORTEST)"), std::string::npos);
  EXPECT_NE(text.find("Restrictor (TRAIL)"), std::string::npos);
  EXPECT_NE(text.find("Recursive Join (restrictor: TRAIL)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end Query facade.
// ---------------------------------------------------------------------------
class QueryFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeFigure1Graph(&ids_); }
  PropertyGraph g_;
  Figure1Ids ids_;
};

TEST_F(QueryFacadeTest, PaperIntroQueryUnderSimple) {
  auto r = ExecuteQuery(
      g_,
      "MATCH ALL SIMPLE p = (?x {name:\"Moe\"})"
      "-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:\"Apu\"})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  PathSet expected;
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n4}, {ids_.e1, ids_.e4}));
  expected.Insert(Path({ids_.n1, ids_.n6, ids_.n3, ids_.n7, ids_.n4},
                       {ids_.e8, ids_.e11, ids_.e7, ids_.e10}));
  EXPECT_EQ(*r, expected);
}

TEST_F(QueryFacadeTest, AnyShortestTrail) {
  auto r = ExecuteQuery(g_,
                        "MATCH ANY SHORTEST TRAIL p = (x)-[:Knows+]->(y)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 9u);  // one shortest trail per endpoint pair
}

TEST_F(QueryFacadeTest, AnyShortestWalkTerminatesViaOptimizer) {
  // Unoptimized this diverges (Knows cycle); the any-shortest rewrite
  // rescues it.
  QueryOptions opts;
  opts.eval.limits.max_path_length = 64;
  auto r = ExecuteQuery(
      g_, "MATCH ANY SHORTEST WALK p = (x)-[:Knows+]->(y)", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 9u);

  opts.optimize = false;
  auto diverges = ExecuteQuery(
      g_, "MATCH ANY SHORTEST WALK p = (x)-[:Knows+]->(y)", opts);
  EXPECT_TRUE(diverges.status().IsResourceExhausted());
}

TEST_F(QueryFacadeTest, ExtendedQuerySampleTrailPerTarget) {
  // §7.1's example: one path per target over (:Knows)*.
  auto r = ExecuteQuery(g_,
                        "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS "
                        "TRAIL p = (?x)-[(:Knows)*]->(?y) "
                        "GROUP BY TARGET ORDER BY PATH");
  ASSERT_TRUE(r.ok());
  // Kleene star: every node is a target of its own zero-length path, which
  // is the shortest in each target-partition — 7 paths.
  EXPECT_EQ(r->size(), 7u);
  for (PathRef p : *r) EXPECT_EQ(p.Len(), 0u);
}

TEST_F(QueryFacadeTest, WhereConditionFilters) {
  auto r = ExecuteQuery(g_,
                        "MATCH ALL TRAIL p = (x)-[:Knows+]->(y) "
                        "WHERE len() = 2 AND last.name = \"Apu\"");
  ASSERT_TRUE(r.ok());
  PathSet expected;
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n4}, {ids_.e1, ids_.e4}));
  expected.Insert(Path({ids_.n3, ids_.n2, ids_.n4}, {ids_.e3, ids_.e4}));
  EXPECT_EQ(*r, expected);
}

TEST_F(QueryFacadeTest, WholePathRestrictorOption) {
  // :Knows+/:Knows+ under TRAIL, per-ϕ reading: both halves are trails but
  // their concatenation may repeat an edge. The whole-path option filters
  // those out.
  QueryOptions opts;
  auto lax = ExecuteQuery(
      g_, "MATCH ALL TRAIL p = (x)-[:Knows+/:Knows+]->(y)", opts);
  ASSERT_TRUE(lax.ok());
  opts.whole_path_restrictor = true;
  auto strict = ExecuteQuery(
      g_, "MATCH ALL TRAIL p = (x)-[:Knows+/:Knows+]->(y)", opts);
  ASSERT_TRUE(strict.ok());
  EXPECT_LT(strict->size(), lax->size());
  for (PathRef p : *strict) EXPECT_TRUE(p.IsTrail());
  bool lax_has_non_trail = false;
  for (PathRef p : *lax) lax_has_non_trail |= !p.IsTrail();
  EXPECT_TRUE(lax_has_non_trail);
}

TEST_F(QueryFacadeTest, EffectivePlanExposesOptimizedPlan) {
  auto q = Query::Parse("MATCH ANY SHORTEST WALK p = (x)-[:Knows+]->(y)");
  ASSERT_TRUE(q.ok());
  QueryOptions opts;
  PlanPtr optimized = q->EffectivePlan(opts);
  // The rewrite swapped the ϕ semantics.
  EXPECT_NE(optimized->ToAlgebraString().find("ϕ[SHORTEST]"),
            std::string::npos);
  opts.optimize = false;
  EXPECT_NE(q->EffectivePlan(opts)->ToAlgebraString().find("ϕ[WALK]"),
            std::string::npos);
}

TEST_F(QueryFacadeTest, SelectorSemanticsDocsExist) {
  // The Table 1/2 documentation strings are wired up (used by EXPLAIN-style
  // tooling and the README).
  EXPECT_NE(std::string(SelectorSemantics(SelectorKind::kShortestKGroup))
                .find("first k groups"),
            std::string::npos);
  EXPECT_NE(std::string(RestrictorSemantics(PathSemantics::kTrail))
                .find("repeated edges"),
            std::string::npos);
}

}  // namespace
}  // namespace pathalg

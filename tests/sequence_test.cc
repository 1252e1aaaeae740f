// Tests for §2.3 sequenced path queries: concatenation of independently
// selected/restricted sub-queries with an outer selector–restrictor over
// the concatenated answer set, plus the union form.

#include <gtest/gtest.h>

#include "algebra/core_ops.h"
#include "algebra/recursive.h"
#include "gql/sequence.h"
#include "path/path_ops.h"
#include "plan/evaluator.h"
#include "regex/parser.h"
#include "workload/figure1.h"

namespace pathalg {
namespace {

RegexPtr Re(const char* text) {
  auto r = ParseRegex(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

class SequenceTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeFigure1Graph(&ids_); }
  PropertyGraph g_;
  Figure1Ids ids_;
};

TEST_F(SequenceTest, RejectsDegenerateInputs) {
  EXPECT_TRUE(BuildSequencePlan({}).status().IsInvalidArgument());
  SequenceQuery q;
  q.parts.push_back({{SelectorKind::kAll, 1}, PathSemantics::kWalk,
                     nullptr, nullptr});
  EXPECT_TRUE(BuildSequencePlan(q).status().IsInvalidArgument());
}

TEST_F(SequenceTest, SinglePartEqualsPlainQuery) {
  SequenceQuery q;
  q.selector = {SelectorKind::kAll, 1};
  q.restrictor = PathSemantics::kWalk;
  q.parts.push_back({{SelectorKind::kAll, 1}, PathSemantics::kTrail,
                     Re(":Knows+"), nullptr});
  auto plan = BuildSequencePlan(q);
  ASSERT_TRUE(plan.ok());
  auto result = Evaluate(g_, *plan);
  ASSERT_TRUE(result.ok());
  auto direct = Recursive(
      Select(g_, EdgesOf(g_), *EdgeLabelEq(1, "Knows")),
      PathSemantics::kTrail);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*result, *direct);
}

TEST_F(SequenceTest, PaperExampleTrailsThenShortestWalks) {
  // §2.3: "ask for all trails connecting nodes n1 and n2, then all
  // shortest walks connecting n2 to n3, and require that the entire
  // concatenated path between n1 and n3 be a shortest trail."
  SequenceQuery q;
  q.selector = {SelectorKind::kAllShortest, 1};  // "shortest" of the pair
  q.restrictor = PathSemantics::kTrail;          // "... trail"
  q.parts.push_back(
      {{SelectorKind::kAll, 1},
       PathSemantics::kTrail,
       Re(":Knows+"),
       Condition::And(FirstPropEq("name", Value("Moe")),
                      LastPropEq("name", Value("Homer")))});
  q.parts.push_back(
      {{SelectorKind::kAllShortest, 1},
       PathSemantics::kWalk,
       Re(":Knows+"),
       Condition::And(FirstPropEq("name", Value("Homer")),
                      LastPropEq("name", Value("Lisa")))});
  auto plan = BuildSequencePlan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The part-2 ϕWalk is guarded by the ALL SHORTEST pipeline; give the
  // evaluator a budget in case the optimizer is disabled.
  EvalOptions opts;
  opts.limits.max_path_length = 8;
  opts.limits.truncate = true;
  auto result = Evaluate(g_, *plan, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Trails n1→n2: (n1,e1,n2) and (n1,e1,n2,e2,n3,e3,n2). Shortest walk
  // n2→n3: (n2,e2,n3). Concatenations: lengths 2 and 4; both are trails;
  // ALL SHORTEST keeps the length-2 one.
  PathSet expected;
  expected.Insert(Path({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2}));
  EXPECT_EQ(*result, expected);
}

TEST_F(SequenceTest, OuterRestrictorFiltersNonTrails) {
  // Knows+ trails (n1→n2) ⋈ Knows+ trails (n2→n2 cycle): the concatenation
  // repeats edges unless filtered by the outer ρTrail.
  SequenceQuery q;
  q.selector = {SelectorKind::kAll, 1};
  q.restrictor = PathSemantics::kTrail;
  q.parts.push_back({{SelectorKind::kAll, 1},
                     PathSemantics::kTrail,
                     Re(":Knows+"),
                     LastPropEq("name", Value("Homer"))});
  q.parts.push_back({{SelectorKind::kAll, 1},
                     PathSemantics::kTrail,
                     Re(":Knows+"),
                     LastPropEq("name", Value("Homer"))});
  auto plan = BuildSequencePlan(q);
  ASSERT_TRUE(plan.ok());
  auto result = Evaluate(g_, *plan);
  ASSERT_TRUE(result.ok());
  for (PathRef p : *result) {
    EXPECT_TRUE(p.IsTrail()) << p.ToString(g_);
    EXPECT_EQ(g_.NodeName(p.Last()), "n2");
  }
  // Without the outer restrictor some concatenations repeat edges.
  SequenceQuery lax = q;
  lax.restrictor = PathSemantics::kWalk;
  auto lax_plan = BuildSequencePlan(lax);
  ASSERT_TRUE(lax_plan.ok());
  auto lax_result = Evaluate(g_, *lax_plan);
  ASSERT_TRUE(lax_result.ok());
  EXPECT_GT(lax_result->size(), result->size());
}

TEST_F(SequenceTest, ThreePartSequence) {
  // n1 → n2 → n3 → n4 through single Knows edges, assembled from three
  // one-hop parts; the outer ACYCLIC keeps the simple chain.
  SequenceQuery q;
  q.selector = {SelectorKind::kAll, 1};
  q.restrictor = PathSemantics::kAcyclic;
  for (const char* target : {"Homer", "Lisa", "Apu"}) {
    q.parts.push_back({{SelectorKind::kAll, 1},
                       PathSemantics::kWalk,
                       Re(":Knows"),
                       LastPropEq("name", Value(target))});
  }
  auto plan = BuildSequencePlan(q);
  ASSERT_TRUE(plan.ok());
  auto result = Evaluate(g_, *plan);
  ASSERT_TRUE(result.ok());
  // n?→n2→n3→n4: (n1,e1,n2,e2,n3,?)… n3 -Knows-> n4 does not exist; the
  // only Knows edge into n4 is e4 from n2. So the sequence is empty.
  EXPECT_TRUE(result->empty());

  // Adjust: n1 → n2 (Homer), n2 → n3 (Lisa), n3 → n2?? — use targets that
  // exist: Homer, Lisa, Homer gives (…,n2,e2,n3,e3,n2) which repeats n2 →
  // killed by ACYCLIC.
  SequenceQuery q2;
  q2.selector = {SelectorKind::kAll, 1};
  q2.restrictor = PathSemantics::kAcyclic;
  for (const char* target : {"Homer", "Lisa", "Homer"}) {
    q2.parts.push_back({{SelectorKind::kAll, 1},
                        PathSemantics::kWalk,
                        Re(":Knows"),
                        LastPropEq("name", Value(target))});
  }
  auto plan2 = BuildSequencePlan(q2);
  ASSERT_TRUE(plan2.ok());
  auto result2 = Evaluate(g_, *plan2);
  ASSERT_TRUE(result2.ok());
  EXPECT_TRUE(result2->empty());
  // With SIMPLE the closed triangle n2→n3→n2 IS allowed when it starts at
  // n2: parts Lisa, Homer from n2: (n2,e2,n3,e3,n2) — simple closed.
  SequenceQuery q3;
  q3.selector = {SelectorKind::kAll, 1};
  q3.restrictor = PathSemantics::kSimple;
  q3.parts.push_back({{SelectorKind::kAll, 1},
                      PathSemantics::kWalk,
                      Re(":Knows"),
                      LastPropEq("name", Value("Lisa"))});
  q3.parts.push_back({{SelectorKind::kAll, 1},
                      PathSemantics::kWalk,
                      Re(":Knows"),
                      LastPropEq("name", Value("Homer"))});
  auto plan3 = BuildSequencePlan(q3);
  ASSERT_TRUE(plan3.ok());
  auto result3 = Evaluate(g_, *plan3);
  ASSERT_TRUE(result3.ok());
  EXPECT_TRUE(result3->Contains(
      Path({ids_.n2, ids_.n3, ids_.n2}, {ids_.e2, ids_.e3})));
}

TEST_F(SequenceTest, UnionOfSequenceAnswers) {
  // §2.3: "Another option allowed by GQL is taking an union of such answer
  // sets, with the usual set-union semantics."
  SequenceQuery knows;
  knows.selector = {SelectorKind::kAll, 1};
  knows.restrictor = PathSemantics::kSimple;
  knows.parts.push_back({{SelectorKind::kAll, 1},
                         PathSemantics::kSimple,
                         Re(":Knows+"),
                         FirstPropEq("name", Value("Moe"))});
  SequenceQuery likes;
  likes.selector = {SelectorKind::kAll, 1};
  likes.restrictor = PathSemantics::kSimple;
  likes.parts.push_back({{SelectorKind::kAll, 1},
                         PathSemantics::kSimple,
                         Re("(:Likes/:Has_creator)+"),
                         FirstPropEq("name", Value("Moe"))});
  auto p1 = BuildSequencePlan(knows);
  auto p2 = BuildSequencePlan(likes);
  ASSERT_TRUE(p1.ok() && p2.ok());
  PlanPtr unioned = PlanNode::Union(*p1, *p2);
  auto result = Evaluate(g_, unioned);
  ASSERT_TRUE(result.ok());
  auto r1 = Evaluate(g_, *p1);
  auto r2 = Evaluate(g_, *p2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(*result, Union(*r1, *r2));
  EXPECT_FALSE(result->empty());
}

TEST_F(SequenceTest, PlanShapeHasRestrictAndTranslate) {
  SequenceQuery q;
  q.selector = {SelectorKind::kAnyShortest, 1};
  q.restrictor = PathSemantics::kTrail;
  q.parts.push_back({{SelectorKind::kAll, 1}, PathSemantics::kTrail,
                     Re(":Knows+"), nullptr});
  q.parts.push_back({{SelectorKind::kAll, 1}, PathSemantics::kWalk,
                     Re(":Likes"), nullptr});
  auto plan = BuildSequencePlan(q);
  ASSERT_TRUE(plan.ok());
  std::string algebra = (*plan)->ToAlgebraString();
  EXPECT_NE(algebra.find("ρ[TRAIL]"), std::string::npos) << algebra;
  EXPECT_NE(algebra.find("π(*,*,1)(τ[A](γ[ST]"), std::string::npos)
      << algebra;
  EXPECT_TRUE((*plan)->Validate().ok());
}

}  // namespace
}  // namespace pathalg

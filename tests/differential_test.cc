// Differential tests: the algebra evaluation of compiled RPQ plans must
// agree with the independent automaton-based baseline (§8.2) across graph
// families, regexes and semantics. Regexes here have their closures at the
// top of each union branch — the shapes the paper uses — where the per-ϕ
// restrictor reading coincides with the automaton's whole-path reading.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>

#include "baseline/automaton_eval.h"
#include "fuzz_util.h"
#include "gql/query.h"
#include "plan/evaluator.h"
#include "plan/optimizer.h"
#include "regex/compile.h"
#include "regex/parser.h"
#include "workload/figure1.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

RegexPtr MustParse(std::string_view text) {
  auto r = ParseRegex(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : nullptr;
}

// Regexes where the per-ϕ restrictor reading (aligned to whole-path via
// ApplyWholePathRestrictor) provably agrees with the automaton: closures
// at the top of union branches, plus concatenations of closures — a
// trail/acyclic/simple/shortest whole path splits at the concatenation
// boundary into parts that are themselves trail/acyclic/simple/shortest,
// so the join of the per-part answers covers every whole answer.
const char* kTopClosureRegexes[] = {
    ":a+",
    ":a*",
    "(:a/:b)+",
    "(:a/:b)*",
    ":a+|:b+",
    "(:a|:b)+",
    ":a|:b",
    ":a/:b",
    ":a?",
    ":a+/:b",
    ":a+/:b+",
    ":a*/:b*",
    "(:a|:b)+/:a?",
};

using DiffParam = std::tuple<PathSemantics, const char*>;

class DifferentialTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(DifferentialTest, AlgebraMatchesAutomatonOnRandomGraphs) {
  auto [semantics, regex_text] = GetParam();
  RegexPtr regex = MustParse(regex_text);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    PropertyGraph g = MakeRandomGraph(7, 12, {"a", "b"}, seed);
    CompileOptions copts;
    copts.semantics = semantics;
    auto algebra = Evaluate(g, CompileRegex(regex, copts));
    AutomatonEvalOptions aopts;
    aopts.semantics = semantics;
    auto automaton = EvaluateRpqAutomaton(g, regex, aopts);
    ASSERT_TRUE(algebra.ok()) << algebra.status().ToString();
    ASSERT_TRUE(automaton.ok()) << automaton.status().ToString();
    // Non-recursive shapes (:a/:b etc.) evaluate per-ϕ trivially; align
    // with the automaton's whole-path reading before comparing.
    PathSet lhs = ApplyWholePathRestrictor(*algebra, semantics);
    EXPECT_EQ(lhs, *automaton)
        << "seed " << seed << " regex " << regex_text << " semantics "
        << PathSemanticsToString(semantics);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FiniteSemantics, DifferentialTest,
    ::testing::Combine(::testing::Values(PathSemantics::kTrail,
                                         PathSemantics::kAcyclic,
                                         PathSemantics::kSimple,
                                         PathSemantics::kShortest),
                       ::testing::ValuesIn(kTopClosureRegexes)),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      std::string name = PathSemanticsToString(std::get<0>(info.param));
      name += "_";
      for (char c : std::string(std::get<1>(info.param))) {
        name += std::isalnum(static_cast<unsigned char>(c))
                    ? c
                    : '_';
      }
      name += std::to_string(info.index);
      return name;
    });

// Seeded fuzz loop on top of the hand-picked regexes above: ≥200 random
// graph × random regex trials per semantics, deterministic seeds, with the
// seed echoed on failure so any red trial reproduces in isolation. Regexes
// come from the same proven top-closure family; graphs from the
// Erdős–Rényi generator the fixed cases already use.
class DifferentialFuzzTest : public ::testing::TestWithParam<PathSemantics> {
};

TEST_P(DifferentialFuzzTest, RandomGraphsTimesRandomRegexes) {
  const PathSemantics semantics = GetParam();
  const std::vector<std::string> labels = {"a", "b", "c"};
  for (uint64_t trial = 1; trial <= 200; ++trial) {
    const uint64_t seed =
        0x9e3779b97f4a7c15ull ^
        (trial * 1000003ull + static_cast<uint64_t>(semantics));
    std::mt19937_64 rng(seed);
    PropertyGraph g = MakeRandomGraph(5 + rng() % 4, 8 + rng() % 6, labels,
                                      rng());
    std::string regex = fuzz::RandomTopClosureRegex(rng, labels);
    EXPECT_TRUE(fuzz::RunDifferentialTrial(
        g, regex, semantics,
        "trial " + std::to_string(trial) + " seed " + std::to_string(seed)));
    if (HasFailure()) break;  // one repro is enough
  }
}

INSTANTIATE_TEST_SUITE_P(
    FiniteSemantics, DifferentialFuzzTest,
    ::testing::Values(PathSemantics::kTrail, PathSemantics::kAcyclic,
                      PathSemantics::kSimple, PathSemantics::kShortest),
    [](const ::testing::TestParamInfo<PathSemantics>& info) {
      return PathSemanticsToString(info.param);
    });

TEST(DifferentialWalkTest, BoundedWalksAgreeOnDags) {
  // On DAGs walks terminate naturally, so no truncation mismatch between
  // the per-ϕ and whole-path budgets can occur.
  for (auto make : {+[]() { return MakeGridGraph(3, 3); },
                    +[]() { return MakeChainGraph(7, "a"); },
                    +[]() { return MakeDiamondChainGraph(3, "a"); }}) {
    PropertyGraph g = make();
    for (const char* regex_text : {":a+", ":a*", "(:a|:b)+"}) {
      RegexPtr regex = MustParse(regex_text);
      CompileOptions copts;
      copts.semantics = PathSemantics::kWalk;
      auto algebra = Evaluate(g, CompileRegex(regex, copts));
      AutomatonEvalOptions aopts;
      aopts.semantics = PathSemantics::kWalk;
      auto automaton = EvaluateRpqAutomaton(g, regex, aopts);
      // Grid graphs have labels E/S: ":a" finds nothing there; that is
      // fine — both sides must agree on emptiness too.
      ASSERT_TRUE(algebra.ok() && automaton.ok());
      EXPECT_EQ(*algebra, *automaton) << regex_text;
    }
  }
}

TEST(DifferentialWalkTest, GridWalksWithMatchingLabels) {
  PropertyGraph g = MakeGridGraph(3, 3, "a");  // uniform label
  RegexPtr regex = MustParse(":a+");
  CompileOptions copts;
  copts.semantics = PathSemantics::kWalk;
  auto algebra = Evaluate(g, CompileRegex(regex, copts));
  AutomatonEvalOptions aopts;
  auto automaton = EvaluateRpqAutomaton(g, regex, aopts);
  ASSERT_TRUE(algebra.ok() && automaton.ok());
  EXPECT_FALSE(algebra->empty());
  EXPECT_EQ(*algebra, *automaton);
}

TEST(DifferentialTest2, Figure1PaperPattern) {
  // The paper's marquee pattern on the paper's graph, all finite semantics.
  PropertyGraph g = MakeFigure1Graph();
  RegexPtr regex = MustParse("(:Knows+)|(:Likes/:Has_creator)+");
  for (PathSemantics sem :
       {PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple, PathSemantics::kShortest}) {
    CompileOptions copts;
    copts.semantics = sem;
    auto algebra = Evaluate(g, CompileRegex(regex, copts));
    AutomatonEvalOptions aopts;
    aopts.semantics = sem;
    auto automaton = EvaluateRpqAutomaton(g, regex, aopts);
    ASSERT_TRUE(algebra.ok() && automaton.ok());
    PathSet lhs = ApplyWholePathRestrictor(*algebra, sem);
    EXPECT_EQ(lhs, *automaton) << PathSemanticsToString(sem);
  }
}

TEST(DifferentialTest2, OptimizedPlansMatchAutomaton) {
  // Optimizer in the loop: optimize the compiled plan, then compare.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    PropertyGraph g = MakeRandomGraph(7, 11, {"a", "b"}, seed);
    RegexPtr regex = MustParse("(:a|:b)+");
    CompileOptions copts;
    copts.semantics = PathSemantics::kSimple;
    PlanPtr plan = PlanNode::Select(NodePropEq(1, "id", Value(0)),
                                    CompileRegex(regex, copts));
    auto optimized = Optimize(plan);
    auto lhs = Evaluate(g, optimized.plan);
    AutomatonEvalOptions aopts;
    aopts.semantics = PathSemantics::kSimple;
    aopts.source = g.FindNodeByProperty("id", Value(0));
    auto rhs = EvaluateRpqAutomaton(g, regex, aopts);
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    EXPECT_EQ(*lhs, *rhs) << "seed " << seed;
  }
}

TEST(DifferentialTest2, SocialGraphAnyShortest) {
  // LDBC-like graph at a modest scale: ANY SHORTEST per pair from the
  // algebra side must pick paths of exactly the automaton's per-pair
  // minimal length.
  SocialGraphOptions sopts;
  sopts.num_persons = 24;
  sopts.num_messages = 30;
  sopts.random_knows = 20;
  PropertyGraph g = MakeSocialGraph(sopts);
  RegexPtr regex = MustParse(":Knows+");

  auto algebra = ExecuteQuery(
      g, "MATCH ANY SHORTEST WALK p = (x)-[:Knows+]->(y)");
  ASSERT_TRUE(algebra.ok()) << algebra.status().ToString();

  AutomatonEvalOptions aopts;
  aopts.semantics = PathSemantics::kShortest;
  auto automaton = EvaluateRpqAutomaton(g, regex, aopts);
  ASSERT_TRUE(automaton.ok());

  // Build per-pair minimal lengths from the automaton side.
  std::map<std::pair<NodeId, NodeId>, size_t> best;
  for (PathRef p : *automaton) {
    auto key = std::make_pair(p.First(), p.Last());
    auto it = best.find(key);
    if (it == best.end() || p.Len() < it->second) best[key] = p.Len();
  }
  // The algebra returns exactly one path per pair, of minimal length.
  std::set<std::pair<NodeId, NodeId>> seen;
  for (PathRef p : *algebra) {
    auto key = std::make_pair(p.First(), p.Last());
    ASSERT_TRUE(best.count(key)) << p.ToString(g);
    EXPECT_EQ(p.Len(), best[key]) << p.ToString(g);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate pair";
  }
  EXPECT_EQ(seen.size(), best.size());
}

}  // namespace
}  // namespace pathalg

/// \file seeded_closure_differential_test.cc
/// Differential contract of seeded ϕ (PhiSpec::seeds, algebra/recursive.h)
/// and of the select-into-closure rule that fills the seeds in:
///
///   E(ϕ_sem with seeds S)  ==  σ_{First ∈ S}(E(ϕ_sem))   byte for byte
///
/// for every engine E — the fused frontier (NFA walker, or the product
/// BFS for SHORTEST), the base source / layered shortest, and naive —
/// whenever the unseeded run succeeds. A seeded run may succeed where the
/// unseeded one trips a budget, never the reverse. Seeded runs are
/// byte-identical at t ∈ {1, 4}, Status included. At the plan level, the
/// optimized σ_c(ϕ(R)) (c's first-node conjuncts moved into ϕ's source)
/// answers byte for byte what the unoptimized plan answers on the same
/// engine. Suite names carry "DifferentialFuzz" so the sanitizer and TSan
/// CI lanes run every case.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "algebra/frontier_closure.h"
#include "algebra/recursive.h"
#include "plan/evaluator.h"
#include "plan/optimizer.h"
#include "regex/ast.h"
#include "regex/compile.h"

namespace pathalg {
namespace {

const std::vector<std::string> kLabels = {"a", "b", "c"};
const std::vector<PathSemantics> kAllSemantics = {
    PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
    PathSemantics::kSimple, PathSemantics::kShortest};

/// A random multigraph whose nodes carry a label from {A, B, none} and,
/// three times in four, an integer property k ∈ {0, 1, 2}: first-node
/// conditions then hit labelled, unlabelled and property-less nodes.
PropertyGraph SeededTrialGraph(uint64_t seed) {
  std::mt19937_64 rng(seed);
  GraphBuilder b;
  const size_t n = 5 + seed % 4;
  const bool acyclic = seed % 2 == 0;
  const char* node_labels[] = {"A", "B", ""};
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<std::string, Value>> props;
    if (rng() % 4 != 0) {
      props.emplace_back("k", Value(static_cast<int64_t>(rng() % 3)));
    }
    b.AddNode(node_labels[rng() % 3], std::move(props));
  }
  const size_t m = 8 + seed % 6;
  for (size_t j = 0; j < m; ++j) {
    NodeId s = static_cast<NodeId>(rng() % n);
    NodeId t = static_cast<NodeId>(rng() % n);
    if (acyclic) {
      if (s == t) continue;
      if (s > t) std::swap(s, t);
    }
    EXPECT_TRUE(b.AddEdge(s, t, kLabels[rng() % kLabels.size()]).ok());
  }
  return b.Build();
}

/// A random closure-free regex, the family the fused engine admits.
RegexPtr RandomInner(std::mt19937_64& rng, int depth) {
  if (depth <= 0 || rng() % 3 == 0) {
    return RegexNode::Label(kLabels[rng() % kLabels.size()]);
  }
  RegexPtr l = RandomInner(rng, depth - 1);
  RegexPtr r = RandomInner(rng, depth - 1);
  return rng() % 2 == 0 ? RegexNode::Concat(std::move(l), std::move(r))
                        : RegexNode::Union(std::move(l), std::move(r));
}

ParallelOptions Par(size_t threads) {
  ParallelOptions par;
  par.threads = threads;
  par.min_chunk = 1;  // tiny fuzz inputs must actually chunk at t > 1
  return par;
}

enum class Engine { kFused, kBaseSource, kNaive };

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kFused:
      return "fused";
    case Engine::kBaseSource:
      return "base-source";
    case Engine::kNaive:
      return "naive";
  }
  return "?";
}

Result<PathSet> RunEngine(Engine engine, const PropertyGraph& g,
                          const RegexPtr& inner, const PathSet& base,
                          PhiSpec spec, const EvalLimits& limits,
                          size_t threads) {
  switch (engine) {
    case Engine::kFused:
      return FrontierClosure(g, inner, spec, limits, Par(threads));
    case Engine::kBaseSource:
      return Recursive(base, spec, limits, PhiEngine::kOptimized,
                       Par(threads));
    case Engine::kNaive:
      return Recursive(base, spec, limits, PhiEngine::kNaive, Par(threads));
  }
  return Status::Internal("unknown engine");
}

/// σ_{First ∈ seeds}(s), in s's order.
PathList KeepSeedFirst(const PathSet& s, const std::vector<NodeId>& seeds) {
  PathList out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (std::binary_search(seeds.begin(), seeds.end(), s[i].First())) {
      out.Append(s[i], s.hash_of(i));
    }
  }
  return out;
}

/// The four seed-set shapes: empty, one node, a random subset, all nodes.
std::vector<std::vector<NodeId>> SeedSets(std::mt19937_64& rng, size_t n) {
  std::vector<NodeId> one = {static_cast<NodeId>(rng() % n)};
  std::vector<NodeId> some, all;
  for (NodeId v = 0; v < n; ++v) {
    all.push_back(v);
    if (rng() % 2 == 0) some.push_back(v);
  }
  return {{}, one, some, all};
}

TEST(SeededClosureDifferentialFuzz, EverySeededEngineIsTheFilteredUnseeded) {
  size_t compared = 0, rescued = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const PropertyGraph g = SeededTrialGraph(seed);
    std::mt19937_64 rng(seed * 7919);
    const RegexPtr inner = RandomInner(rng, 2);
    auto base = Evaluate(g, CompileRegex(inner));
    ASSERT_TRUE(base.ok()) << base.status();
    // Tight budgets so every trip kind occurs: unseeded WALK over a cycle
    // trips max_path_length, small max_paths trips on big answers, and a
    // two-round cap trips on long compositions.
    EvalLimits limits;
    limits.max_path_length = 3 + seed % 3;
    limits.max_paths = seed % 3 == 0 ? 12 : 1'000'000;
    if (seed % 5 == 0) limits.max_iterations = 2;
    const std::vector<std::vector<NodeId>> seed_sets =
        SeedSets(rng, g.num_nodes());
    for (PathSemantics sem : kAllSemantics) {
      for (Engine engine :
           {Engine::kFused, Engine::kBaseSource, Engine::kNaive}) {
        const std::string what =
            "seed " + std::to_string(seed) + " inner `" + inner->ToString() +
            "` " + PathSemanticsToString(sem) + " " + EngineName(engine);
        auto full = RunEngine(engine, g, inner, *base, sem, limits, 1);
        for (const std::vector<NodeId>& seeds : seed_sets) {
          const PhiSpec spec(sem, &seeds);
          auto serial = RunEngine(engine, g, inner, *base, spec, limits, 1);
          auto parallel = RunEngine(engine, g, inner, *base, spec, limits, 4);
          ASSERT_EQ(serial.status().ToString(), parallel.status().ToString())
              << what;
          if (serial.ok()) {
            ASSERT_EQ(serial->paths(), parallel->paths()) << what;
          }
          if (!full.ok()) {
            if (serial.ok()) ++rescued;
            continue;
          }
          ASSERT_TRUE(serial.ok())
              << what << ": seeded run failed where the unseeded one "
              << "succeeded: " << serial.status();
          EXPECT_EQ(serial->paths(), KeepSeedFirst(*full, seeds)) << what;
          ++compared;
        }
      }
    }
  }
  // The sweep must exercise both sides of the contract.
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(rescued, 0u);
}

// --- select-into-closure, end to end through the evaluator ---------------

ConditionPtr RandomFirstNodeAtom(std::mt19937_64& rng) {
  const int64_t k = static_cast<int64_t>(rng() % 3);
  switch (rng() % 5) {
    case 0:
      return FirstPropEq("k", Value(k));
    case 1:
      return FirstLabelEq(rng() % 2 == 0 ? "A" : "B");
    case 2:
      return NodePropEq(1, "k", Value(k));
    case 3:
      return Condition::Not(NodeLabelEq(1, "A"));
    default:
      return Condition::Or(FirstPropEq("k", Value(k)), FirstLabelEq("B"));
  }
}

/// Conjuncts the rule must leave in σ.
ConditionPtr RandomOtherAtom(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return LastPropEq("k", Value(static_cast<int64_t>(rng() % 3)));
    case 1:
      return LenCompare(CompareOp::kLe, 2);
    case 2:
      return Condition::Or(FirstLabelEq("A"), LastLabelEq("B"));
    default:
      return Condition::Or(FirstLabelEq("A"), NodeLabelEq(2, "B"));
  }
}

TEST(SeededClosureDifferentialFuzz, SelectIntoClosureKeepsEachEngineAnswer) {
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const PropertyGraph g = SeededTrialGraph(seed);
    std::mt19937_64 rng(seed * 104729);
    const RegexPtr inner = RandomInner(rng, 2);
    EvalLimits limits;
    limits.max_path_length = 4;
    // One first-node conjunct, then maybe one the rule must leave in σ
    // and maybe a second first-node one, each on a random side.
    ConditionPtr c = RandomFirstNodeAtom(rng);
    for (int extra = 0; extra < 2; ++extra) {
      if (rng() % 2 != 0) continue;
      ConditionPtr atom =
          extra == 0 ? RandomOtherAtom(rng) : RandomFirstNodeAtom(rng);
      c = rng() % 2 == 0 ? Condition::And(c, atom) : Condition::And(atom, c);
    }
    for (PathSemantics sem : kAllSemantics) {
      const PlanPtr plan =
          PlanNode::Select(c, PlanNode::Recursive(sem, CompileRegex(inner)));
      const OptimizeResult opt = Optimize(plan);
      const std::string what = "seed " + std::to_string(seed) + " plan " +
                               plan->ToAlgebraString() + " optimized " +
                               opt.plan->ToAlgebraString();
      ASSERT_NE(std::find(opt.applied.begin(), opt.applied.end(),
                          "select-into-closure"),
                opt.applied.end())
          << what;
      for (PhiEngine engine : {PhiEngine::kOptimized, PhiEngine::kNaive}) {
        EvalOptions reference;
        reference.limits = limits;
        reference.engine = engine;
        auto expected = Evaluate(g, plan, reference);
        for (size_t threads : {1, 4}) {
          EvalOptions options = reference;
          options.threads = threads;
          options.min_chunk = 1;
          auto got = Evaluate(g, opt.plan, options);
          if (!expected.ok()) {
            // Naive filters its unseeded answer, so it trips exactly
            // where the unoptimized plan does.
            if (engine == PhiEngine::kNaive) {
              EXPECT_EQ(got.status().ToString(),
                        expected.status().ToString())
                  << what;
            }
            continue;
          }
          ASSERT_TRUE(got.ok()) << what << ": " << got.status();
          EXPECT_EQ(got->paths(), expected->paths()) << what;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 400u);
}

}  // namespace
}  // namespace pathalg

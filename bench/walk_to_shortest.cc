// Reproduces §7.3's second optimization: replacing ϕWalk with ϕShortest
// turns a diverging plan into a terminating one ("the change of ϕWalk by
// ϕShortest is very important because now the query returns a finite
// number of solutions, i.e. it always terminates"). Prints both plans,
// demonstrates the divergence/termination behaviour, and benchmarks the
// shortest plan against bounded-walk evaluation.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "plan/evaluator.h"
#include "plan/optimizer.h"

namespace pathalg {
namespace {

using bench::Check;

PlanPtr Section73Plan(PathSemantics sem) {
  // π(1,1,*)(τG(γL(ϕ(σ_{Knows}(Edges))))).
  return PlanNode::Project(
      {1, 1, std::nullopt},
      PlanNode::OrderBy(
          OrderKey::kG,
          PlanNode::GroupBy(
              GroupKey::kL,
              PlanNode::Recursive(
                  sem, PlanNode::Select(EdgeLabelEq(1, "Knows"),
                                        PlanNode::EdgesScan())))));
}

void PrintSection73() {
  bench::PrintHeader("§7.3 — the ϕWalk → ϕShortest rewrite");
  Figure1Ids ids;
  PropertyGraph g = MakeFigure1Graph(&ids);

  PlanPtr walk_plan = Section73Plan(PathSemantics::kWalk);
  OptimizeResult opt = Optimize(walk_plan);
  std::printf("before: %s\n", walk_plan->ToAlgebraString().c_str());
  std::printf("after:  %s  (rules:", opt.plan->ToAlgebraString().c_str());
  for (const std::string& rule : opt.applied) {
    std::printf(" %s", rule.c_str());
  }
  std::printf(")\n\n");

  EvalOptions tight;
  tight.limits.max_path_length = 64;
  auto diverges = Evaluate(g, walk_plan, tight);
  Check(diverges.status().IsResourceExhausted(),
        "ϕWalk plan diverges on the cyclic Knows subgraph");
  auto terminates = Evaluate(g, opt.plan, tight);
  Check(terminates.ok(), "ϕShortest plan terminates");
  // π(1,1,*) of τG(γL(·)) keeps the globally shortest paths: length 1.
  for (PathRef p : *terminates) {
    Check(p.Len() == 1, "first length-group = the four Knows edges");
  }
  Check(terminates->size() == 4, "four globally shortest paths");
  std::printf(
      "walk plan: %s\nshortest plan: %zu paths (all of length 1)\n\n",
      diverges.status().ToString().c_str(), terminates->size());
}

void BM_BoundedWalkPlan(benchmark::State& state) {
  PropertyGraph g = bench::ScaledSocialGraph(24);
  PlanPtr plan = Section73Plan(PathSemantics::kWalk);
  EvalOptions opts;
  opts.limits.max_path_length = static_cast<size_t>(state.range(0));
  opts.limits.truncate = true;
  for (auto _ : state) {
    auto r = Evaluate(g, plan, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("walk, len<=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_BoundedWalkPlan)->Arg(3)->Arg(4)->Arg(5);

void BM_ShortestPlan(benchmark::State& state) {
  PropertyGraph g = bench::ScaledSocialGraph(24);
  PlanPtr plan = Section73Plan(PathSemantics::kShortest);
  for (auto _ : state) {
    auto r = Evaluate(g, plan);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("shortest, exact");
}
BENCHMARK(BM_ShortestPlan);

void BM_ShortestPlanScaling(benchmark::State& state) {
  PropertyGraph g =
      bench::ScaledSocialGraph(static_cast<size_t>(state.range(0)));
  PlanPtr plan = Section73Plan(PathSemantics::kShortest);
  for (auto _ : state) {
    auto r = Evaluate(g, plan);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ShortestPlanScaling)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

}  // namespace
}  // namespace pathalg

int main(int argc, char** argv) {
  return pathalg::bench::BenchMain(argc, argv, pathalg::PrintSection73);
}

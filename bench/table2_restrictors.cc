// Reproduces Table 2: the four GQL restrictors (plus the extended-grammar
// SHORTEST), their informal semantics, verified live by running ϕ under
// each on Figure 1 and checking the answer-set properties; then benchmarks
// the restrictors against each other on scaled graphs — the "who is
// cheaper" shape: acyclic/simple < trail < bounded walk.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "gql/selector.h"

namespace pathalg {
namespace {

using bench::Check;

void PrintTable2() {
  bench::PrintHeader("Table 2 — restrictors in GQL");
  Figure1Ids ids;
  PropertyGraph g = MakeFigure1Graph(&ids);
  PathSet knows = bench::LabelEdges(g, "Knows");

  std::printf("%-10s %-8s %s\n", "Restrictor", "|result|", "semantics");
  for (PathSemantics sem :
       {PathSemantics::kWalk, PathSemantics::kTrail, PathSemantics::kAcyclic,
        PathSemantics::kSimple, PathSemantics::kShortest}) {
    EvalLimits limits;
    if (sem == PathSemantics::kWalk) {
      limits.max_path_length = 6;
      limits.truncate = true;
    }
    PathSet result = *Recursive(knows, sem, limits);
    std::string size = std::to_string(result.size());
    if (sem == PathSemantics::kWalk) size = "inf (" + size + " at len<=6)";
    std::printf("%-10s %-8s %s\n", PathSemanticsToString(sem), size.c_str(),
                RestrictorSemantics(sem));
    for (PathRef p : result) {
      Check(SatisfiesSemantics(p, sem), "restrictor contract");
    }
  }
  std::printf("\n");
}

void BM_Restrictor(benchmark::State& state) {
  auto sem = static_cast<PathSemantics>(state.range(0));
  PropertyGraph g = bench::ScaledSocialGraph(24);
  PathSet knows = bench::LabelEdges(g, "Knows");
  EvalLimits limits;
  limits.max_path_length = 5;
  limits.truncate = true;
  size_t answer = 0;
  for (auto _ : state) {
    auto r = Recursive(knows, sem, limits);
    answer = r->size();
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(PathSemanticsToString(sem));
  state.counters["answer"] = static_cast<double>(answer);
}
BENCHMARK(BM_Restrictor)->DenseRange(0, 4);

void BM_RestrictorScaling(benchmark::State& state) {
  // Trail restrictor across graph sizes.
  PropertyGraph g =
      bench::ScaledSocialGraph(static_cast<size_t>(state.range(0)));
  PathSet knows = bench::LabelEdges(g, "Knows");
  EvalLimits limits;
  limits.max_path_length = 4;
  limits.truncate = true;
  for (auto _ : state) {
    auto r = Recursive(knows, PathSemantics::kTrail, limits);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RestrictorScaling)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
}  // namespace pathalg

int main(int argc, char** argv) {
  return pathalg::bench::BenchMain(argc, argv, pathalg::PrintTable2);
}

// Reproduces Table 1: the seven GQL selectors, their informal semantics,
// and the semantics verified live — each selector evaluated over the same
// ϕTrail(Knows+) input on the Figure 1 graph must satisfy its contract.
// Then benchmarks every selector on a scaled social graph.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.h"
#include "gql/query.h"
#include "gql/translate.h"

namespace pathalg {
namespace {

using bench::Check;

void PrintTable1() {
  bench::PrintHeader("Table 1 — selectors in GQL");
  Figure1Ids ids;
  PropertyGraph g = MakeFigure1Graph(&ids);

  std::vector<Selector> selectors = {
      {SelectorKind::kAll, 1},         {SelectorKind::kAnyShortest, 1},
      {SelectorKind::kAllShortest, 1}, {SelectorKind::kAny, 1},
      {SelectorKind::kAnyK, 2},        {SelectorKind::kShortestK, 2},
      {SelectorKind::kShortestKGroup, 2},
  };
  PlanPtr pattern = PlanNode::Recursive(
      PathSemantics::kTrail,
      PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan()));
  PathSet trails = *Evaluate(g, pattern);

  std::printf("%-20s %-8s %s\n", "Selector", "|result|", "semantics");
  for (const Selector& sel : selectors) {
    PlanPtr plan = TranslateSelector(sel, pattern);
    PathSet result = *Evaluate(g, plan);
    std::printf("%-20s %-8zu %s\n", sel.ToString().c_str(), result.size(),
                SelectorSemantics(sel.kind));

    // Verify each selector's contract against the full trail answer.
    std::map<std::pair<NodeId, NodeId>, std::vector<PathRef>> pairs;
    for (PathRef p : trails) {
      pairs[{p.First(), p.Last()}].push_back(p);
    }
    switch (sel.kind) {
      case SelectorKind::kAll:
        Check(result == trails, "ALL returns everything");
        break;
      case SelectorKind::kAnyShortest:
      case SelectorKind::kAny:
        Check(result.size() == pairs.size(), "one path per partition");
        break;
      case SelectorKind::kAllShortest:
        Check(result == KeepShortestPerEndpointPair(trails),
              "ALL SHORTEST = per-pair minima");
        break;
      case SelectorKind::kAnyK:
      case SelectorKind::kShortestK: {
        size_t want = 0;
        for (const auto& [key, paths] : pairs) {
          want += std::min(paths.size(), sel.k);
        }
        Check(result.size() == want, "k paths per partition (clamped)");
        break;
      }
      case SelectorKind::kShortestKGroup: {
        // First k length-groups per partition.
        size_t want = 0;
        for (const auto& [key, paths] : pairs) {
          std::set<size_t> lens;
          for (PathRef p : paths) lens.insert(p.Len());
          size_t kept_groups = std::min(lens.size(), sel.k);
          auto it = lens.begin();
          for (size_t i = 0; i < kept_groups; ++i, ++it) {
            for (PathRef p : paths) want += (p.Len() == *it) ? 1 : 0;
          }
        }
        Check(result.size() == want, "first k groups per partition");
        break;
      }
    }
  }
  std::printf("\n");
}

void BM_Selector(benchmark::State& state) {
  std::vector<Selector> selectors = {
      {SelectorKind::kAll, 1},         {SelectorKind::kAnyShortest, 1},
      {SelectorKind::kAllShortest, 1}, {SelectorKind::kAny, 1},
      {SelectorKind::kAnyK, 2},        {SelectorKind::kShortestK, 2},
      {SelectorKind::kShortestKGroup, 2},
  };
  Selector sel = selectors[static_cast<size_t>(state.range(0))];
  PropertyGraph g = bench::ScaledSocialGraph(32);
  PlanPtr pattern = PlanNode::Recursive(
      PathSemantics::kTrail,
      PlanNode::Select(EdgeLabelEq(1, "Knows"), PlanNode::EdgesScan()));
  PlanPtr plan = TranslateSelector(sel, pattern);
  EvalOptions opts;
  opts.limits.max_path_length = 3;
  opts.limits.truncate = true;
  for (auto _ : state) {
    auto r = Evaluate(g, plan, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(sel.ToString());
}
BENCHMARK(BM_Selector)->DenseRange(0, 6);

}  // namespace
}  // namespace pathalg

int main(int argc, char** argv) {
  return pathalg::bench::BenchMain(argc, argv, pathalg::PrintTable1);
}

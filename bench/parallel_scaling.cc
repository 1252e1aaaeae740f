// Thread-scaling sweep for the parallel operator runtime (ROADMAP
// "Parallel Select/Join/Recursive"): σ, ⋈ and ϕ over the skewed
// (preferential-attachment) social graphs, at 1/2/4/8 eval threads.
//
// The artifact phase is the determinism contract, enforced: every
// workload is evaluated serially and at each thread count, and the
// outputs must be *byte-identical* — same paths in the same order, not
// just set-equal. It then measures a wall-time speedup curve and prints
// it as compare.py-compatible JSON (`wall_time_ms` /
// `sum_iteration_time_ms` maps keyed by workload/thread-count, plus an
// informational `speedup_vs_serial` map).
//
// Speedup is reported wherever the binary runs, but only *asserted*
// (>= 2x at 4 threads on the ϕ-dominated workloads) when the host
// actually has >= 4 hardware threads AND PATHALG_REQUIRE_SPEEDUP is set
// in the environment — a smoke container pinned to one core cannot
// physically exhibit parallel speedup, and a load-spiked CI runner
// should not fail the build on it. Determinism is always asserted.
//
// Flags (besides google-benchmark's):
//   --verify_only   determinism assertions + sweep table only
//   --json <file>   also write the sweep JSON to <file>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timing.h"
#include "engine/replay.h"
#include "plan/evaluator.h"

namespace pathalg {
namespace bench {
namespace {

std::string g_json_path;

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

/// The sweep's parallel knobs: a small min_chunk so even mid-sized
/// frontiers fan out (the skewed graphs concentrate work in hub buckets,
/// which is exactly what chunk stealing is for).
ParallelOptions Par(size_t threads) { return {threads, /*min_chunk=*/64}; }

struct Fixture {
  PropertyGraph g;
  PathSet knows;
  PathSet follows;
  PathSet trails;  // bounded ϕTrail closure: the σ/⋈ input set
  EvalLimits trail_limits;

  static const Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      SkewedSocialGraphOptions opts;
      opts.num_persons = 180;
      opts.knows_per_person = 4;
      opts.follows_per_person = 3;
      opts.seed = 7;
      fx->g = MakeSkewedSocialGraph(opts);
      fx->knows = LabelEdges(fx->g, "Knows");
      fx->follows = LabelEdges(fx->g, "Follows");
      fx->trail_limits.max_path_length = 3;
      fx->trail_limits.truncate = true;
      fx->trails = Recursive(fx->knows, PathSemantics::kTrail,
                             fx->trail_limits)
                       .value();
      return fx;
    }();
    return *f;
  }
};

/// One sweep workload: evaluate at `threads`, returning the result set.
struct Workload {
  const char* name;
  PathSet (*run)(size_t threads);
};

PathSet RunPhiTrail(size_t threads) {
  const Fixture& fx = Fixture::Get();
  return Recursive(fx.knows, PathSemantics::kTrail, fx.trail_limits,
                   PhiEngine::kOptimized, Par(threads))
      .value();
}

PathSet RunPhiAcyclic(size_t threads) {
  const Fixture& fx = Fixture::Get();
  return Recursive(fx.knows, PathSemantics::kAcyclic, fx.trail_limits,
                   PhiEngine::kOptimized, Par(threads))
      .value();
}

PathSet RunPhiShortest(size_t threads) {
  const Fixture& fx = Fixture::Get();
  return Recursive(fx.knows, PathSemantics::kShortest, {},
                   PhiEngine::kOptimized, Par(threads))
      .value();
}

PathSet RunSelect(size_t threads) {
  const Fixture& fx = Fixture::Get();
  // A per-path predicate over the materialized trail closure.
  return Select(fx.g, fx.trails, *LenCompare(CompareOp::kGe, 2),
                Par(threads));
}

PathSet RunJoin(size_t threads) {
  const Fixture& fx = Fixture::Get();
  return Join(fx.trails, fx.follows, Par(threads));
}

constexpr Workload kWorkloads[] = {
    {"phi_trail", RunPhiTrail},     {"phi_acyclic", RunPhiAcyclic},
    {"phi_shortest", RunPhiShortest}, {"select_len", RunSelect},
    {"join_follows", RunJoin},
};

/// Times 3 evaluations: `median` gets the per-evaluation median (the
/// load-resistant signal, = this artifact's sum_iteration_time_ms) and
/// `total` the summed wall clock of all 3 (= its wall_time_ms).
void TimeRuns(PathSet (*run)(size_t), size_t threads, double* median,
              double* total) {
  double times[3];
  for (double& t : times) {
    const SteadyClock::time_point start = SteadyClock::now();
    PathSet r = run(threads);
    benchmark::DoNotOptimize(r);
    t = static_cast<double>(MicrosSince(start)) / 1000.0;
  }
  *total = times[0] + times[1] + times[2];
  std::sort(std::begin(times), std::end(times));
  *median = times[1];
}

void PrintArtifact() {
  PrintHeader("parallel operator scaling — σ/⋈/ϕ over CSR partitions");
  const Fixture& fx = Fixture::Get();
  std::printf("graph: skewed social, %zu nodes, %zu edges; |Knows|=%zu, "
              "|trails<=3|=%zu; hardware threads: %u\n\n",
              fx.g.num_nodes(), fx.g.num_edges(), fx.knows.size(),
              fx.trails.size(), std::thread::hardware_concurrency());

  // --- The contract: parallel output byte-identical to serial. ---------
  for (const Workload& w : kWorkloads) {
    const PathSet serial = w.run(1);
    Check(!serial.empty(), "sweep workload produced paths");
    for (size_t t : kThreadCounts) {
      if (t == 1) continue;
      const PathSet parallel = w.run(t);
      Check(parallel.paths() == serial.paths(),
            "parallel output byte-identical to serial (same paths, same "
            "order)");
    }
    std::printf("  %-13s |answer| = %-7zu parallel == serial at t=2,4,8\n",
                w.name, serial.size());
  }

  // --- End-to-end: the # threads directive through ReplayWorkload. -----
  {
    engine::Workload wl;
    wl.graph_spec = "skewed persons=120 knows=4 follows=2 seed=7";
    wl.threads = 4;
    engine::WorkloadEntry e;
    e.name = "shortest_closure";
    e.query = "MATCH ANY SHORTEST p = (?x)-[:Knows+]->(?y)";
    wl.entries.push_back(e);
    engine::ReplayOptions serial_opts;
    serial_opts.threads = 1;
    auto serial = engine::ReplayWorkload(wl, serial_opts);
    auto par = engine::ReplayWorkload(wl, {});  // honors # threads

    Check(serial.ok() && par.ok(), "replay sweep ran");
    Check(serial->ok() && par->ok(), "replay sweep had no errors");
    Check(par->threads == 4, "replay honored the # threads directive");
    Check(serial->queries[0].result_paths == par->queries[0].result_paths,
          "replay cardinality identical across thread counts");
    std::printf("  %-13s |answer| = %-7zu replay(# threads 4) == replay(1)\n",
                "replay_e2e", par->queries[0].result_paths);
  }

  // --- Speedup curve (medians of 3). -----------------------------------
  std::string wall_json, iter_json, speedup_json;
  std::printf("\n  %-13s %10s %10s %10s %10s   speedup @4\n", "workload",
              "t=1 ms", "t=2 ms", "t=4 ms", "t=8 ms");
  double phi_best_speedup4 = 0.0;
  for (const Workload& w : kWorkloads) {
    double ms[4];
    double wall[4];
    size_t i = 0;
    for (size_t t : kThreadCounts) {
      TimeRuns(w.run, t, &ms[i], &wall[i]);
      ++i;
    }
    const double speedup4 = ms[2] > 0 ? ms[0] / ms[2] : 0.0;
    if (std::strncmp(w.name, "phi_", 4) == 0) {
      if (speedup4 > phi_best_speedup4) phi_best_speedup4 = speedup4;
    }
    std::printf("  %-13s %10.2f %10.2f %10.2f %10.2f   %9.2fx\n", w.name,
                ms[0], ms[1], ms[2], ms[3], speedup4);
    i = 0;
    for (size_t t : kThreadCounts) {
      const std::string key =
          std::string(w.name) + "/t" + std::to_string(t);
      wall_json += (wall_json.empty() ? "" : ", ") + ("\"" + key + "\": ") +
                   std::to_string(wall[i]);
      iter_json += (iter_json.empty() ? "" : ", ") + ("\"" + key + "\": ") +
                   std::to_string(ms[i]);
      ++i;
    }
    speedup_json += (speedup_json.empty() ? "" : ", ") + ("\"" + std::string(w.name) + "\": ") +
                    std::to_string(speedup4);
  }
  std::string json = "{\n  \"schema\": \"pathalg-parallel-scaling-v1\",\n";
  json += "  \"hardware_threads\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"wall_time_ms\": {" + wall_json + "},\n";
  json += "  \"sum_iteration_time_ms\": {" + iter_json + "},\n";
  json += "  \"speedup_vs_serial_at_4\": {" + speedup_json + "}\n}\n";
  std::printf("\n-- JSON sweep ---------------------------------------\n%s",
              json.c_str());
  if (!g_json_path.empty()) {
    std::ofstream out(g_json_path);
    out << json;
    std::printf("(wrote %s)\n", g_json_path.c_str());
  }

  // --- Merge-phase hashing: the serial fraction the chunk bodies now
  // pre-pay. The parallel operators' merge loop used to recompute every
  // candidate's hash on the calling thread (PathSet::Insert); chunk
  // bodies now carry precomputed hashes to PathSet::InsertHashed. This
  // comparison isolates that serial-phase saving — it is core-count
  // independent, so it is measurable even on a 1-CPU container where the
  // thread sweep above cannot show speedup.
  {
    const PathSet joined = RunJoin(1);
    std::vector<std::pair<Path, size_t>> candidates;
    candidates.reserve(joined.size());
    for (PathRef p : joined) candidates.emplace_back(p, p.Hash());
    auto merge_insert = [&] {
      PathSet s;
      for (const auto& [p, h] : candidates) s.Insert(p);
      return s;
    };
    auto merge_hashed = [&] {
      PathSet s;
      for (const auto& [p, h] : candidates) s.InsertHashed(p, h);
      return s;
    };
    Check(merge_insert().paths() == merge_hashed().paths(),
          "InsertHashed merge byte-identical to Insert merge");
    double insert_ms[3], hashed_ms[3];
    for (int r = 0; r < 3; ++r) {
      SteadyClock::time_point t0 = SteadyClock::now();
      PathSet a = merge_insert();
      benchmark::DoNotOptimize(a);
      insert_ms[r] = static_cast<double>(MicrosSince(t0)) / 1000.0;
      t0 = SteadyClock::now();
      PathSet b = merge_hashed();
      benchmark::DoNotOptimize(b);
      hashed_ms[r] = static_cast<double>(MicrosSince(t0)) / 1000.0;
    }
    std::sort(std::begin(insert_ms), std::end(insert_ms));
    std::sort(std::begin(hashed_ms), std::end(hashed_ms));
    std::printf("\n  merge of %zu candidates: Insert (rehash) %.2f ms, "
                "InsertHashed %.2f ms\n",
                candidates.size(), insert_ms[1], hashed_ms[1]);
  }

  // Only a genuinely multi-core host can show parallel speedup; opt in
  // where that is guaranteed (dev machines, perf CI).
  if (std::getenv("PATHALG_REQUIRE_SPEEDUP") != nullptr &&
      std::thread::hardware_concurrency() >= 4) {
    Check(phi_best_speedup4 >= 2.0,
          "a phi-dominated workload reached >= 2x speedup at 4 threads");
  }
  std::printf("\n");
}

void BM_OperatorThreads(benchmark::State& state) {
  const Workload& w = kWorkloads[static_cast<size_t>(state.range(0))];
  const size_t threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    PathSet r = w.run(threads);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(std::string(w.name) + "/threads:" +
                 std::to_string(threads));
}
BENCHMARK(BM_OperatorThreads)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

/// The σ/⋈/ϕ merge phase in isolation: arg 0 rehashes every candidate on
/// the merge thread (the pre-InsertHashed behavior), arg 1 consumes
/// hashes precomputed the way the chunk bodies now do.
void BM_MergePhase(benchmark::State& state) {
  const bool hashed = state.range(0) != 0;
  const PathSet joined = RunJoin(1);
  std::vector<std::pair<Path, size_t>> candidates;
  candidates.reserve(joined.size());
  for (PathRef p : joined) candidates.emplace_back(p, p.Hash());
  for (auto _ : state) {
    PathSet s;
    if (hashed) {
      for (const auto& [p, h] : candidates) s.InsertHashed(p, h);
    } else {
      for (const auto& [p, h] : candidates) s.Insert(p);
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetLabel(hashed ? "insert_hashed" : "insert_rehash");
}
BENCHMARK(BM_MergePhase)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Strips "--json <file>" before google-benchmark sees it.
void StripFlags(int* argc, char** argv) {
  for (int i = 1; i < *argc;) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "FATAL: --json needs a value\n");
        std::exit(1);
      }
      g_json_path = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      argv[*argc] = nullptr;
    } else {
      ++i;
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace pathalg

int main(int argc, char** argv) {
  pathalg::bench::StripFlags(&argc, argv);
  return pathalg::bench::BenchMain(argc, argv,
                                   pathalg::bench::PrintArtifact);
}

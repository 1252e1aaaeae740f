#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "engine/workload_file.h"
#include "mutation/overlay.h"
#include "storage/snapshot_writer.h"

#ifndef PATHALG_BENCH_WORKLOAD_DIR
#define PATHALG_BENCH_WORKLOAD_DIR "pathalg_bench/workloads"
#endif

namespace pathalg {
namespace bench {

const char kSocialSpec[] =
    "social persons=400 messages=800 ring=2 chords=400 likes=2 seed=7";

namespace {

constexpr size_t kPersons = 400;

// 2-hop friends-of-friends, 1-hop friends, and likes→creator filtered on
// the first node: the three point-read shapes. The name filter is a σ over
// the whole scan, so each read's cost grows with the graph.
constexpr const char* kTemplates[] = {
    "MATCH ALL WALK p = (?x {name:\"person%\"})-[:Knows/:Knows]->(?y)",
    "MATCH ALL WALK p = (?x {name:\"person%\"})-[:Knows]->(?y)",
    "MATCH ALL WALK p = (?x)-[:Likes/:Has_creator]->(?y) WHERE first.name = "
    "\"person%\"",
};
constexpr size_t kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

// Distinct salts keep the independent seeded streams of one run apart.
constexpr uint64_t kReadSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kWriteSalt = 0xc2b2ae3d27d4eb4fULL;

}  // namespace

std::string PointReadText(uint32_t id) {
  std::string text = kTemplates[id / kPersons];
  const size_t hole = text.find('%');
  text.replace(hole, 1, std::to_string(id % kPersons));
  return text;
}

PointReadStream::PointReadStream(uint64_t seed)
    : rng_(seed ^ kReadSalt), zipf_(kPersons, 1.0) {}

uint32_t PointReadStream::Next() {
  const uint32_t shape = static_cast<uint32_t>(rng_() % kNumTemplates);
  const uint32_t person = static_cast<uint32_t>(zipf_.Sample(rng_));
  return shape * static_cast<uint32_t>(kPersons) + person;
}

ChurnWriter::ChurnWriter(std::shared_ptr<const PropertyGraph> base,
                         uint64_t seed)
    : mirror_(std::move(base)), rng_(seed ^ kWriteSalt) {
  // Persons are the first nodes the social generator adds, so they carry
  // the auto names n1..n<persons>; other graphs use every node.
  persons_ = std::min(kPersons, mirror_.base().num_nodes());
}

uint32_t ChurnWriter::Next() {
  for (;;) {
    const uint64_t roll = rng_() % 10;
    const std::string a = "n" + std::to_string(1 + rng_() % persons_);
    const std::string b = "n" + std::to_string(1 + rng_() % persons_);
    std::string cmd;
    bool adds_fresh = false;
    if (roll < 6) {
      cmd = "add-edge " + a + " " + b + " label=Knows";
    } else if (roll < 8) {
      cmd = "add-node churn" + std::to_string(++fresh_counter_) +
            " label=Person";
      adds_fresh = true;
    } else if (roll == 8 && !fresh_live_.empty()) {
      cmd = "rm-node " + fresh_live_.back();
    } else {
      cmd = "add-edge " + a + " " + b + " label=Likes";
    }
    Result<mutation::DeltaRecord> rec = mutation::ParseMutationCommand(cmd);
    if (!rec.ok()) continue;
    mutation::DeltaRecord resolved = *rec;
    if (!mirror_.Apply(&resolved).ok()) continue;
    if (adds_fresh) {
      fresh_live_.push_back(resolved.name);
    } else if (resolved.op == mutation::DeltaOp::kRemoveNode) {
      fresh_live_.pop_back();
    }
    lines_.push_back("!mutate " + cmd);
    expected_.push_back("OK mutate " + mutation::FormatMutation(resolved) +
                        " nodes=" + std::to_string(mirror_.live_node_count()) +
                        " edges=" + std::to_string(mirror_.live_edge_count()));
    return static_cast<uint32_t>(lines_.size() - 1);
  }
}

uint64_t ChurnWriter::VersionAfterAll() const {
  return storage::SnapshotWriter::VersionId(
      mutation::DeltaOverlayGraph::Apply(mirror_));
}

Result<ClosureSuite> LoadClosureSuite() {
  ClosureSuite suite;
  for (const char* family : {"social", "diamond", "random"}) {
    const std::string path = std::string(PATHALG_BENCH_WORKLOAD_DIR) +
                             "/closure_" + family + ".gqlw";
    PATHALG_ASSIGN_OR_RETURN(engine::Workload w,
                             engine::LoadWorkloadFile(path));
    if (w.graph_spec.empty()) {
      return Status::InvalidArgument(path + ": needs a `# graph` spec");
    }
    const size_t graph = suite.graph_specs.size();
    suite.graph_specs.push_back(w.graph_spec);
    for (const engine::WorkloadEntry& e : w.entries) {
      if (!e.mutation.empty() || !e.expect.has_value()) {
        return Status::InvalidArgument(
            path + ": every entry must be a query with an `# expect` pin (" +
            e.name + ")");
      }
      suite.queries.push_back({e.name, e.query, *e.expect, graph, e.repeat});
    }
  }
  return suite;
}

std::vector<uint32_t> ClosureOrder(const ClosureSuite& suite, uint64_t seed,
                                   size_t passes) {
  std::mt19937_64 rng(seed ^ kReadSalt);
  std::vector<uint32_t> all;
  for (uint32_t q = 0; q < suite.queries.size(); ++q) {
    all.insert(all.end(), suite.queries[q].repeat, q);
  }
  std::vector<uint32_t> order;
  for (size_t p = 0; p < passes; ++p) {
    std::vector<uint32_t> pass = all;
    for (size_t i = pass.size(); i > 1; --i) {
      std::swap(pass[i - 1], pass[rng() % i]);
    }
    order.insert(order.end(), pass.begin(), pass.end());
  }
  return order;
}

bool ParseCount(const std::string& response, size_t* count) {
  if (response.rfind("OK ", 0) != 0) return false;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(response.c_str() + 3, &end, 10);
  if (end == response.c_str() + 3 || std::string(end).rfind(" paths", 0) != 0) {
    return false;
  }
  *count = static_cast<size_t>(n);
  return true;
}

namespace {

engine::EngineOptions ReferenceOptions() {
  engine::EngineOptions options;
  // Large enough that no reference text is ever re-prepared.
  options.plan_cache_capacity = 4096;
  return options;
}

}  // namespace

ReferenceAnswers::ReferenceAnswers(std::shared_ptr<const PropertyGraph> graph)
    : engine_(std::move(graph), ReferenceOptions()) {}

Result<size_t> ReferenceAnswers::Count(const std::string& text) {
  auto it = memo_.find(text);
  if (it != memo_.end()) return it->second;
  PATHALG_ASSIGN_OR_RETURN(PathSet paths, engine_.Execute(text));
  memo_.emplace(text, paths.size());
  return paths.size();
}

void ReferenceAnswers::SetGraph(std::shared_ptr<const PropertyGraph> graph) {
  engine_.SetGraph(std::move(graph));
  memo_.clear();
}

std::vector<int64_t> MatchChurnReads(
    const std::shared_ptr<const PropertyGraph>& base,
    const std::vector<mutation::DeltaRecord>& writes,
    const std::vector<ChurnRead>& reads) {
  std::vector<int64_t> matched(reads.size(), -1);
  std::vector<size_t> by_min(reads.size());
  std::iota(by_min.begin(), by_min.end(), size_t{0});
  std::stable_sort(by_min.begin(), by_min.end(), [&](size_t a, size_t b) {
    return reads[a].min_version < reads[b].min_version;
  });
  mutation::DeltaState state(base);
  ReferenceAnswers reference(base);
  std::vector<size_t> active;
  size_t next = 0;
  for (size_t v = 0; v <= writes.size(); ++v) {
    if (v > 0) {
      mutation::DeltaRecord rec = writes[v - 1];
      if (!state.Apply(&rec).ok()) break;  // cannot happen: writes are legal
    }
    while (next < by_min.size() && reads[by_min[next]].min_version <= v) {
      active.push_back(by_min[next++]);
    }
    if (active.empty()) continue;
    if (v > 0) {
      reference.SetGraph(std::make_shared<const PropertyGraph>(
          mutation::DeltaOverlayGraph::Apply(state)));
    }
    std::vector<size_t> still;
    for (size_t r : active) {
      Result<size_t> want = reference.Count(reads[r].text);
      if (want.ok() && *want == reads[r].count) {
        matched[r] = static_cast<int64_t>(v);
      } else if (reads[r].max_version > v) {
        still.push_back(r);
      }
    }
    active.swap(still);
  }
  return matched;
}

}  // namespace bench
}  // namespace pathalg

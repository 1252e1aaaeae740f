#ifndef PATHALG_BENCH_WORKLOADS_H_
#define PATHALG_BENCH_WORKLOADS_H_

/// \file workloads.h
/// What the three workloads send and how their answers are checked. The
/// server only ever receives the request text generated here; every
/// generator is seeded, so one seed gives one request stream.
///
///   point_reads        three point-read templates over a Zipf-skewed
///                      person key: 1,200 distinct texts against the
///                      server's 128-entry plan cache.
///   closure_analytics  17 closure queries over three graphs, committed as
///                      .gqlw files with pinned `# expect` cardinalities.
///   live_churn         the point-read stream beside journaled `!mutate`
///                      writes that a client-side DeltaState mirror keeps
///                      legal and predicts exactly.

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query_engine.h"
#include "graph/property_graph.h"
#include "mutation/delta_log.h"
#include "stats.h"

namespace pathalg {
namespace bench {

/// The point-read and live-churn graph: 400 persons, 800 messages
/// (1,200 nodes, 3,600 edges).
extern const char kSocialSpec[];

/// Text of point read `id`: template id / 400, person id % 400.
std::string PointReadText(uint32_t id);

/// The seeded point-read key stream: template uniform over the three,
/// person drawn from Zipf(s=1) over the 400 names.
class PointReadStream {
 public:
  explicit PointReadStream(uint64_t seed);
  uint32_t Next();

 private:
  std::mt19937_64 rng_;
  ZipfSampler zipf_;
};

/// Writes in the churn mix of bench/mutation_churn.cc — Knows edges
/// between random persons, fresh Person nodes, removal of the newest
/// fresh node, Likes edges — each applied to a DeltaState mirror before
/// it is handed out, so every write is legal and its acknowledgement is
/// known in advance.
class ChurnWriter {
 public:
  ChurnWriter(std::shared_ptr<const PropertyGraph> base, uint64_t seed);

  /// Appends the next write; returns its index.
  uint32_t Next();

  /// `!mutate` request line of write `i`.
  const std::string& line(uint32_t i) const { return lines_[i]; }
  /// The exact response the server must give to write `i`.
  const std::string& expected(uint32_t i) const { return expected_[i]; }
  /// Resolved records, in write order.
  const std::vector<mutation::DeltaRecord>& records() const {
    return mirror_.records();
  }
  size_t size() const { return lines_.size(); }
  /// `!version` id of the graph after every write so far.
  uint64_t VersionAfterAll() const;

 private:
  mutation::DeltaState mirror_;
  std::mt19937_64 rng_;
  size_t persons_ = 0;
  uint64_t fresh_counter_ = 0;
  std::vector<std::string> fresh_live_;
  std::vector<std::string> lines_;
  std::vector<std::string> expected_;
};

/// One closure_analytics query with its pinned answer.
struct ClosureQuery {
  std::string name;
  std::string text;
  size_t expect = 0;
  /// Index into ClosureSuite::graph_specs (= connection index).
  size_t graph = 0;
  /// Times the query is sent per pass (`# repeat`).
  size_t repeat = 1;
};

struct ClosureSuite {
  std::vector<std::string> graph_specs;
  std::vector<ClosureQuery> queries;
};

/// Loads closure_{social,diamond,random}.gqlw; every query must carry a
/// `# expect` pin.
Result<ClosureSuite> LoadClosureSuite();

/// The seeded closure request order: `passes` concatenated shuffles, each
/// holding every query index `repeat` times.
std::vector<uint32_t> ClosureOrder(const ClosureSuite& suite, uint64_t seed,
                                   size_t passes);

/// Parses "OK <n> paths..." into n; false for anything else.
bool ParseCount(const std::string& response, size_t* count);

/// Answers of an in-process engine over one graph, memoized by text: the
/// reference a served answer must equal.
class ReferenceAnswers {
 public:
  explicit ReferenceAnswers(std::shared_ptr<const PropertyGraph> graph);
  /// Path count of `text`, or an error status.
  Result<size_t> Count(const std::string& text);
  /// Points the engine at another version, dropping memoized answers.
  void SetGraph(std::shared_ptr<const PropertyGraph> graph);

 private:
  engine::QueryEngine engine_;
  std::map<std::string, size_t> memo_;
};

/// One live_churn read to check: its text, its answer and the window of
/// write versions it can have observed.
struct ChurnRead {
  std::string text;
  size_t count = 0;
  uint32_t min_version = 0;
  uint32_t max_version = 0;
};

/// For each read, the lowest version in its window whose reference answer
/// equals the served one, or -1 when none does. Materializes each version
/// of the write history once, in order.
std::vector<int64_t> MatchChurnReads(
    const std::shared_ptr<const PropertyGraph>& base,
    const std::vector<mutation::DeltaRecord>& writes,
    const std::vector<ChurnRead>& reads);

}  // namespace bench
}  // namespace pathalg

#endif  // PATHALG_BENCH_WORKLOADS_H_

#ifndef PATHALG_BENCH_TRACE_H_
#define PATHALG_BENCH_TRACE_H_

/// \file trace.h
/// The traced run's in-process half. The request stream the untraced TCP
/// run sent is replayed through the same public calls the server makes,
/// with a span around each call into a layer:
///
///   session path     ServerSession::HandleLine per request, which yields
///                    the session layer's own cost (duration minus the
///                    engine's `total=`);
///   decomposed path  NormalizeQueryText → PlanCache::Get → Query::Parse →
///                    Optimize → PlanCache::Put → Evaluate (with EvalStats),
///                    the order QueryEngine::Execute uses, plus
///                    LiveGraph::Mutate / Current / Compact / Open for
///                    writes, and SnapshotWriter::Write / SnapshotReader::
///                    Open for the storage layer.
///
/// Both replays assert that every answer equals the served one, so the
/// mirror cannot drift from the system it describes. Spans stay in memory
/// and are written once, as JSON, when the run ends. Spans inside src/
/// are not part of this benchmark.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "load.h"

namespace pathalg {
namespace bench {

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

using MetricMap = std::map<std::string, MetricValue>;

struct Span {
  uint32_t request = 0;
  int32_t parent = -1;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Opens a span; returns its id.
  int32_t Begin(uint32_t request, int32_t parent, const char* name);
  void End(int32_t span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (µs) of every span called `name`.
  std::vector<double> DurationsUs(std::string_view name) const;
  /// Self time (µs) of every span: its duration minus the part of its
  /// interval its children cover.
  std::vector<double> SelfTimesUs() const;
  Status WriteJson(const std::string& path, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
};

/// One request of the replayed stream.
struct ReplayItem {
  size_t conn = 0;
  RequestKind kind = RequestKind::kRead;
  /// Query text, or the `!mutate ...` line.
  std::string line;
  /// Reads: the answer the untraced run got.
  size_t served_count = 0;
};

struct ReplayInput {
  /// Graph spec of each connection.
  std::vector<std::string> conn_specs;
  /// True when the server ran with --mutation-dir.
  bool mutable_graphs = false;
  std::vector<ReplayItem> items;
  /// Read-only workloads: writes in the churn mix applied to the first
  /// graph after the stream, so the mutation and storage layers report
  /// what a write would cost on this workload's data.
  std::vector<std::string> probe_writes;
  /// Empty directory for journals and snapshots.
  std::string scratch_dir;
};

/// Runs both replays, fills the in-process per-layer metrics and counts
/// answers that differ from the served ones.
Status ReplayInProcess(const ReplayInput& input, Tracer* tracer,
                       MetricMap* metrics, size_t* mismatches);

}  // namespace bench
}  // namespace pathalg

#endif  // PATHALG_BENCH_TRACE_H_

#ifndef PATHALG_SERVER_GRAPH_CATALOG_H_
#define PATHALG_SERVER_GRAPH_CATALOG_H_

/// \file graph_catalog.h
/// Load-once shared graph store for the concurrent server: every session
/// that names the same graph spec gets the same immutable PropertyGraph
/// instance (shared_ptr), so a thousand connections on one social graph
/// cost one build, not a thousand. Specs are the `# graph` workload specs
/// (engine/workload_file.h: figure1, social ..., skewed ..., cycle,
/// chain, diamond, grid, random) plus `csv <path>` for graphs loaded from
/// a CSV file and `snapshot <path>` for binary snapshots (storage/),
/// which mmap in without a rebuild.
///
/// With GraphCatalogOptions::snapshot_dir set the catalog also *writes*
/// snapshots: the first build of a generator spec persists one, and later
/// cold Gets (in this or any future server process) mmap it instead of
/// regenerating — the fast-restart path. Cache files are LRU-evicted
/// beyond max_snapshot_files.
///
/// Thread-safe, and a build never holds the catalog map lock: each spec
/// gets a per-entry latch — the first Get installs it and builds outside
/// the lock, racers for the *same* spec wait on that latch, and Gets for
/// other (cached or cold) specs proceed immediately. A session loading a
/// huge CSV therefore cannot stall the accept loop or other sessions'
/// opens. Failed loads are not cached (the latch is removed), so a
/// mistyped CSV path can be retried after fixing the file.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "graph/property_graph.h"
#include "mutation/live_graph.h"

namespace pathalg {
namespace server {

/// One catalog entry: the shared immutable graph and the canonical spec
/// it was loaded under. With GraphCatalogOptions::mutation_dir set,
/// `live` additionally carries the mutable identity behind the entry: sessions route `!mutate` through it and refresh
/// their engine from `live->Current()`, while `graph` stays the version
/// current at load time (pinning it keeps that version alive for the
/// entry's whole lifetime, so readers never see a dangling base).
struct CatalogEntry {
  std::string spec;
  std::shared_ptr<const PropertyGraph> graph;
  /// Null for read-only catalogs (no mutation_dir). LiveGraph is
  /// internally synchronized, so sharing one per spec across sessions is
  /// exactly the per-graph write serialization the protocol promises.
  std::shared_ptr<mutation::LiveGraph> live;
};

using CatalogEntryPtr = std::shared_ptr<const CatalogEntry>;

/// Monotonic counters; exposed through the server's `!stats`.
struct CatalogCounters {
  uint64_t loads = 0;   // cold Get calls that built a graph
  uint64_t hits = 0;    // Get calls answered from the catalog
  uint64_t errors = 0;  // Get calls whose spec failed to parse/build
  /// Snapshot-cache traffic (only moves when snapshot_dir is configured):
  /// a cold Get served by mmap'ing a cached snapshot file / a cold Get
  /// that had to build from the generator / cache files removed by LRU.
  uint64_t snapshot_hits = 0;
  uint64_t snapshot_misses = 0;
  uint64_t snapshot_evictions = 0;
  /// Cache files that failed to open with a non-NotFound error twice
  /// (once plus one bounded-backoff retry) and were renamed aside to
  /// `<file>.quarantined`; the graph was rebuilt from its generator spec
  /// instead of failing the session.
  uint64_t quarantined_snapshots = 0;
};

struct GraphCatalogOptions {
  /// When non-empty, first builds of generator specs persist a binary
  /// snapshot under this directory (created if missing, one level) and
  /// later cold Gets — including in future server processes — mmap it
  /// instead of rebuilding. `csv`/`snapshot` specs are never cached:
  /// they already name a file.
  std::string snapshot_dir;
  /// Cache files kept per catalog before least-recently-used ones are
  /// deleted (only files this catalog touched are ever evicted).
  size_t max_snapshot_files = 64;
  /// When non-empty, catalog graphs are *mutable*: every entry is opened
  /// as a mutation::LiveGraph with its journal at
  /// `<mutation_dir>/<slug>-<hash>.journal` and its compacted base at
  /// `<mutation_dir>/<slug>-<hash>.base.snap`. A cold Get prefers the
  /// on-disk base over rebuilding from the spec and replays the journal
  /// over it (crash recovery) — so a restarted server resumes at exactly
  /// the version the last acknowledged mutation left behind.
  std::string mutation_dir;
  /// Pending mutations that trigger folding the delta into the next base
  /// snapshot (mutation::LiveGraphOptions::compact_threshold); 0 keeps
  /// the journal growing until process exit.
  size_t mutation_compact_threshold = 64;
  /// Run threshold compactions detached on the shared ThreadPool instead
  /// of inline on the mutating session's thread.
  bool mutation_background_compaction = true;
};

/// Aggregated mutation counters across every live entry (the `!stats`
/// mutation line). Zero-valued when mutation_dir is unset.
struct CatalogMutationStats {
  size_t live_graphs = 0;
  mutation::LiveGraphCounters totals;
};

class GraphCatalog {
 public:
  GraphCatalog() = default;
  explicit GraphCatalog(GraphCatalogOptions options);
  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Returns the graph for `spec`, loading it exactly once per canonical
  /// spec (whitespace-normalized; empty means figure1). Errors are not
  /// cached — a mistyped CSV path can be retried after fixing the file.
  Result<CatalogEntryPtr> Get(std::string_view spec);

  /// Number of loaded graphs (completed loads only).
  size_t size() const;
  CatalogCounters counters() const;
  /// Sums LiveGraphCounters over every mutable entry (order-independent
  /// reduction — unordered iteration never reaches a caller).
  CatalogMutationStats mutation_stats() const;

 private:
  /// Per-spec load latch: the loader builds with the catalog lock
  /// released; racers wait on `cv` until `done`.
  struct Slot {
    Mutex m;
    CondVar cv;
    bool done PA_GUARDED_BY(m) = false;
    /// Null when the load failed.
    CatalogEntryPtr entry PA_GUARDED_BY(m);
    Status error PA_GUARDED_BY(m) = Status::OK();
  };

  /// Loads `key` (a canonical spec), going through the snapshot cache
  /// when it is enabled and `key` is a generator spec.
  Result<PropertyGraph> LoadGraph(const std::string& key);

  /// Opens the mutable identity for `key` (mutation_dir mode): the base
  /// is the compacted on-disk snapshot when one exists (version id read
  /// from its header), else the spec-built graph, and journal recovery
  /// replays any acknowledged tail over it.
  Result<std::shared_ptr<mutation::LiveGraph>> OpenLive(
      const std::string& key);

  /// Marks `path` most-recently-used in the cache LRU, evicting (deleting)
  /// the oldest cache files beyond max_snapshot_files.
  void TouchCacheFile(const std::string& path);

  const GraphCatalogOptions options_;

  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Slot>> entries_
      PA_GUARDED_BY(mu_);
  CatalogCounters counters_ PA_GUARDED_BY(mu_);
  /// Snapshot cache files this catalog created or reused, oldest use
  /// first.
  std::vector<std::string> cache_lru_ PA_GUARDED_BY(mu_);
};

}  // namespace server
}  // namespace pathalg

#endif  // PATHALG_SERVER_GRAPH_CATALOG_H_

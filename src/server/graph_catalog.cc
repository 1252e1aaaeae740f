#include "server/graph_catalog.h"

#ifdef _WIN32
#include <direct.h>
#else
#include <sys/stat.h>
#include <sys/types.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "engine/workload_file.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace pathalg {
namespace server {

namespace {

/// One bounded pause between the first failed snapshot-cache open and
/// its single retry (transient I/O errors clear fast or not at all;
/// anything longer just stalls the session's first query).
constexpr std::chrono::milliseconds kSnapshotRetryBackoff{10};

/// True when `stripped` starts with the word `kind` ("csv" alone or
/// "csv <path>").
bool IsKind(std::string_view stripped, std::string_view kind) {
  if (!StartsWith(stripped, kind)) return false;
  return stripped.size() == kind.size() || stripped[kind.size()] == ' ' ||
         stripped[kind.size()] == '\t';
}

/// Specs that name a file on disk keep their payload byte-for-byte; they
/// are also the specs the snapshot cache must never shadow.
bool IsPathSpec(std::string_view stripped) {
  return IsKind(stripped, "csv") || IsKind(stripped, "snapshot");
}

/// Canonical catalog key: surrounding whitespace stripped, inner runs of
/// whitespace collapsed to one space. "social persons=40  seed=7" and
/// " social persons=40 seed=7 " must hit the same entry, and the empty
/// default spec maps to "figure1" so it shares that entry too. `csv` and
/// `snapshot` specs keep their payload byte-for-byte (after trimming) — a
/// file path may legitimately contain interior whitespace runs, and
/// collapsing them would silently point the key at a different file than
/// the `# graph` directive the same spec round-trips through.
std::string CanonicalSpec(std::string_view spec) {
  const std::string_view stripped = StripWhitespace(spec);
  if (IsPathSpec(stripped)) {
    const size_t kind_len = stripped.find_first_of(" \t");
    if (kind_len == std::string_view::npos) {
      return std::string(stripped);  // bare kind; rejected at build
    }
    const std::string_view kind = stripped.substr(0, kind_len);
    const std::string_view path = StripWhitespace(stripped.substr(kind_len));
    if (path.empty()) return std::string(kind);  // rejected at build
    return std::string(kind) + " " + std::string(path);
  }
  std::string out;
  bool pending_space = false;
  for (char c : stripped) {
    if (c == ' ' || c == '\t') {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) out += ' ';
    pending_space = false;
    out += c;
  }
  if (out.empty()) return "figure1";
  return out;
}

/// Filename stem for a canonical spec: a readable slug plus an FNV-1a
/// hash of the full spec, so distinct specs can never collide even when
/// the slug truncates. Pure function of the spec — stable across
/// processes, which is what makes snapshot caches and mutation journals
/// survive restarts.
std::string SpecFileStem(const std::string& key) {
  std::string slug;
  for (char c : key) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      slug += c;
    } else {
      slug += '_';
    }
    if (slug.size() >= 48) break;
  }
  const uint64_t h = storage::Fnv1a64(key.data(), key.size());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return slug + "-" + hex;
}

std::string SnapshotCacheName(const std::string& key) {
  return SpecFileStem(key) + ".snap";
}

void MakeDirBestEffort(const std::string& dir) {
#ifdef _WIN32
  _mkdir(dir.c_str());
#else
  ::mkdir(dir.c_str(), 0755);
#endif
}

}  // namespace

GraphCatalog::GraphCatalog(GraphCatalogOptions options)
    : options_(std::move(options)) {
  // Best-effort create (one level): a missing cache directory should mean
  // a cold cache, not a silently disabled one. Failure (no permission,
  // parent missing) leaves the cache off exactly as before — every write
  // attempt below is already best-effort.
  if (!options_.snapshot_dir.empty()) MakeDirBestEffort(options_.snapshot_dir);
  if (!options_.mutation_dir.empty()) MakeDirBestEffort(options_.mutation_dir);
}

Result<CatalogEntryPtr> GraphCatalog::Get(std::string_view spec) {
  const std::string key = CanonicalSpec(spec);
  std::shared_ptr<Slot> slot;
  bool loader = false;
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      slot = it->second;
    } else {
      slot = std::make_shared<Slot>();
      entries_.emplace(key, slot);
      loader = true;
    }
  }

  if (!loader) {
    // Wait on the per-spec latch; the catalog lock is not held, so
    // other specs' Gets (and the accept loop) proceed concurrently.
    CatalogEntryPtr entry;
    Status error = Status::OK();
    {
      MutexLock lock(slot->m);
      while (!slot->done) slot->cv.Wait(slot->m);
      entry = slot->entry;
      error = slot->error;
    }
    // A "hit" is a Get answered with a graph; waiters on a load that
    // failed got an error, not a hit (the loader counted the error).
    if (entry == nullptr) return error;
    MutexLock lock(mu_);
    ++counters_.hits;
    return entry;
  }

  // Build with no catalog lock held. Generator specs and `csv <path>`
  // alike go through the workload-file machinery, so catalog specs and
  // recorded `# graph` directives can never drift apart — a workload
  // recorded on any catalog graph loads.
  auto entry = std::make_shared<CatalogEntry>();
  entry->spec = key;
  Status load_error = Status::OK();
  if (options_.mutation_dir.empty()) {
    Result<PropertyGraph> built = LoadGraph(key);
    if (built.ok()) {
      entry->graph =
          std::make_shared<const PropertyGraph>(std::move(built).value());
    } else {
      load_error = built.status();
    }
  } else {
    // Mutable catalog: the entry's graph is whatever version crash
    // recovery lands on (compacted base + replayed journal tail).
    Result<std::shared_ptr<mutation::LiveGraph>> live = OpenLive(key);
    if (live.ok()) {
      entry->live = std::move(live).value();
      entry->graph = entry->live->Current();
    } else {
      load_error = live.status();
    }
  }
  if (!load_error.ok()) {
    {
      // Errors are not cached: remove the latch so a later Get retries.
      MutexLock lock(mu_);
      entries_.erase(key);
      ++counters_.errors;
    }
    MutexLock lock(slot->m);
    slot->error = load_error;
    slot->done = true;
    slot->cv.NotifyAll();
    return load_error;
  }
  CatalogEntryPtr shared = std::move(entry);
  {
    MutexLock lock(mu_);
    ++counters_.loads;
  }
  MutexLock lock(slot->m);
  slot->entry = shared;
  slot->done = true;
  slot->cv.NotifyAll();
  return shared;
}

Result<PropertyGraph> GraphCatalog::LoadGraph(const std::string& key) {
  // The catalog-load injection site: models the graph build (or the CSV
  // parse behind it) failing. No degradation path exists below a failed
  // build — the error propagates to the session as a clean ERR.
  if (FaultInjector::Global().ShouldFail(FaultSite::kCatalogLoad)) {
    return InjectedFault(FaultSite::kCatalogLoad);
  }
  const bool cacheable =
      !options_.snapshot_dir.empty() && !IsPathSpec(key);
  if (!cacheable) return engine::BuildWorkloadGraph(key);

  const std::string cache_path =
      options_.snapshot_dir + "/" + SnapshotCacheName(key);
  // A cached snapshot mmaps in without rebuilding — the fast-restart
  // path. NotFound is a normal cold-cache miss; any *other* failure
  // (torn write, corrupt image, injected I/O error) gets one retry after
  // a bounded backoff — transient errors under memory/disk pressure are
  // common — and, if it persists, the bad file is renamed aside to
  // `<file>.quarantined` so the rebuild below writes a fresh cache file
  // and no future session ever re-reads the bad bytes. The session sees
  // a slower load, never a failure.
  Result<PropertyGraph> cached = storage::SnapshotReader::Open(cache_path);
  if (!cached.ok() && !cached.status().IsNotFound()) {
    std::this_thread::sleep_for(kSnapshotRetryBackoff);
    cached = storage::SnapshotReader::Open(cache_path);
    if (!cached.ok() && !cached.status().IsNotFound()) {
      const std::string quarantine_path = cache_path + ".quarantined";
      std::rename(cache_path.c_str(), quarantine_path.c_str());
      MutexLock lock(mu_);
      ++counters_.quarantined_snapshots;
    }
  }
  if (cached.ok()) {
    {
      MutexLock lock(mu_);
      ++counters_.snapshot_hits;
    }
    TouchCacheFile(cache_path);
    return cached;
  }
  {
    MutexLock lock(mu_);
    ++counters_.snapshot_misses;
  }
  PATHALG_ASSIGN_OR_RETURN(PropertyGraph built,
                           engine::BuildWorkloadGraph(key));
  // Persisting is best-effort: an unwritable cache dir degrades to
  // build-every-start, it must not fail the Get.
  if (storage::SnapshotWriter::Write(built, cache_path).ok()) {
    TouchCacheFile(cache_path);
  }
  return built;
}

Result<std::shared_ptr<mutation::LiveGraph>> GraphCatalog::OpenLive(
    const std::string& key) {
  const std::string stem = options_.mutation_dir + "/" + SpecFileStem(key);
  mutation::LiveGraphOptions live_options;
  live_options.journal_path = stem + ".journal";
  live_options.base_snapshot_path = stem + ".base.snap";
  live_options.compact_threshold = options_.mutation_compact_threshold;
  live_options.background_compaction =
      options_.mutation_background_compaction;

  // A compacted base on disk supersedes the spec: it already folds in
  // every mutation acknowledged before the last compaction. NotFound
  // falls back to the deterministic spec build; any other failure is a
  // real error — silently rebuilding from the spec would roll the graph
  // back past acknowledged mutations.
  std::shared_ptr<const PropertyGraph> base;
  uint64_t version_hint = 0;
  Result<PropertyGraph> on_disk =
      storage::SnapshotReader::Open(live_options.base_snapshot_path);
  if (on_disk.ok()) {
    Result<storage::SnapshotReader::Info> info =
        storage::SnapshotReader::Probe(live_options.base_snapshot_path);
    if (info.ok()) version_hint = info->version_id;
    base = std::make_shared<const PropertyGraph>(std::move(on_disk).value());
  } else if (on_disk.status().IsNotFound()) {
    PATHALG_ASSIGN_OR_RETURN(PropertyGraph built, LoadGraph(key));
    base = std::make_shared<const PropertyGraph>(std::move(built));
  } else {
    return on_disk.status();
  }
  return mutation::LiveGraph::Open(std::move(base), std::move(live_options),
                                   version_hint);
}

CatalogMutationStats GraphCatalog::mutation_stats() const {
  std::vector<std::shared_ptr<mutation::LiveGraph>> live;
  {
    MutexLock lock(mu_);
    // determinism-lint: allow(unordered-iteration)
    for (const auto& kv : entries_) {
      // Collection only — unordered iteration feeds an order-independent
      // sum, never response ordering.
      Slot* slot = kv.second.get();
      MutexLock slot_lock(slot->m);
      if (slot->done && slot->entry != nullptr &&
          slot->entry->live != nullptr) {
        live.push_back(slot->entry->live);
      }
    }
  }
  CatalogMutationStats out;
  out.live_graphs = live.size();
  for (const auto& lg : live) {
    const mutation::LiveGraphCounters c = lg->counters();
    out.totals.mutations_applied += c.mutations_applied;
    out.totals.mutations_rejected += c.mutations_rejected;
    out.totals.pending += c.pending;
    out.totals.compactions += c.compactions;
    out.totals.materializations += c.materializations;
    out.totals.recovered_records += c.recovered_records;
    out.totals.stale_journals += c.stale_journals;
  }
  return out;
}

void GraphCatalog::TouchCacheFile(const std::string& path) {
  std::vector<std::string> evicted;
  {
    MutexLock lock(mu_);
    auto it = std::find(cache_lru_.begin(), cache_lru_.end(), path);
    if (it != cache_lru_.end()) cache_lru_.erase(it);
    cache_lru_.push_back(path);
    while (cache_lru_.size() > options_.max_snapshot_files) {
      evicted.push_back(cache_lru_.front());
      cache_lru_.erase(cache_lru_.begin());
      ++counters_.snapshot_evictions;
    }
  }
  // Unlink outside the lock; on POSIX an already-mmap'd evictee stays
  // readable through its mapping until the graph drops it.
  for (const std::string& p : evicted) std::remove(p.c_str());
}

size_t GraphCatalog::size() const {
  MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& kv : entries_) {
    // Counting only — unordered iteration order never reaches a caller.
    Slot* slot = kv.second.get();
    MutexLock slot_lock(slot->m);
    if (slot->done && slot->entry != nullptr) ++n;
  }
  return n;
}

CatalogCounters GraphCatalog::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

}  // namespace server
}  // namespace pathalg

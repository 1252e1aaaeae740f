#include "algebra/core_ops.h"

#include <utility>
#include <vector>

#include "path/path_index.h"

namespace pathalg {

PathSet Select(const PropertyGraph& g, const PathSet& s,
               const Condition& condition, const ParallelOptions& parallel,
               ParallelStats* parallel_stats) {
  const std::vector<Path>& in = s.paths();
  if (!parallel.ShouldParallelize(in.size())) {
    if (parallel_stats != nullptr && parallel.EffectiveThreads() > 1) {
      ++parallel_stats->serial_fallbacks;
    }
    PathSet out;
    for (size_t i = 0; i < in.size(); ++i) {
      if (condition.Evaluate(g, in[i])) {
        out.InsertHashed(in[i], s.hash_of(i));
      }
    }
    return out;
  }
  // Filter per contiguous chunk into chunk-private vectors, then
  // concatenate in chunk order: the kept paths appear in exactly the
  // input order, as in the serial loop (and the input is already
  // duplicate-free, so insertion order is the whole story). Chunk bodies
  // carry each kept path's hash so the serial merge never rehashes —
  // that recomputation was the merge phase's Amdahl ceiling.
  const ChunkLayout layout = ThreadPool::PlanFor(in.size(), parallel);
  std::vector<std::vector<std::pair<Path, size_t>>> kept(layout.num_chunks);
  ThreadPool::Shared().ParallelFor(
      in.size(), parallel, parallel_stats,
      [&](size_t chunk, size_t begin, size_t end) {
        std::vector<std::pair<Path, size_t>>& mine = kept[chunk];
        for (size_t i = begin; i < end; ++i) {
          if (condition.Evaluate(g, in[i])) {
            mine.emplace_back(in[i], s.hash_of(i));
          }
        }
      });
  PathSet out;
  for (std::vector<std::pair<Path, size_t>>& chunk : kept) {
    for (auto& [p, h] : chunk) out.InsertHashed(std::move(p), h);
  }
  return out;
}

namespace {

/// The probe loop shared by both joins: `extend(p1, emit)` calls
/// `emit(p1 ◦ p2)` for every right-side match of p1, in right-side order.
template <typename Extend>
PathSet ProbeJoin(const PathSet& s1, const ParallelOptions& parallel,
                  ParallelStats* parallel_stats, const Extend& extend) {
  const std::vector<Path>& probe = s1.paths();
  if (!parallel.ShouldParallelize(probe.size())) {
    if (parallel_stats != nullptr && parallel.EffectiveThreads() > 1) {
      ++parallel_stats->serial_fallbacks;
    }
    PathSet out;
    for (const Path& p1 : probe) {
      extend(p1, [&](Path q) { out.Insert(std::move(q)); });
    }
    return out;
  }
  // Chunk the probe side; each chunk emits its concatenations in (p1
  // order, bucket order) — merging chunks in index order reproduces the
  // serial enumeration, and the merge's InsertHashed dedups exactly where
  // the serial loop would (a ◦ can collide when zero-length paths join).
  // Hashing each concatenation happens in the chunk body, off the merge
  // thread.
  const ChunkLayout layout = ThreadPool::PlanFor(probe.size(), parallel);
  std::vector<std::vector<std::pair<Path, size_t>>> produced(
      layout.num_chunks);
  ThreadPool::Shared().ParallelFor(
      probe.size(), parallel, parallel_stats,
      [&](size_t chunk, size_t begin, size_t end) {
        std::vector<std::pair<Path, size_t>>& mine = produced[chunk];
        for (size_t i = begin; i < end; ++i) {
          extend(probe[i], [&](Path q) {
            const size_t h = q.Hash();
            mine.emplace_back(std::move(q), h);
          });
        }
      });
  PathSet out;
  for (std::vector<std::pair<Path, size_t>>& chunk : produced) {
    for (auto& [p, h] : chunk) out.InsertHashed(std::move(p), h);
  }
  return out;
}

}  // namespace

PathSet Join(const PathSet& s1, const PathSet& s2,
             const ParallelOptions& parallel,
             ParallelStats* parallel_stats) {
  // CSR-style dense index of the right side by First(p2): node ids are
  // dense, so the per-p1 probe is an array index, not a hash lookup.
  PathFirstIndex by_first(s2);
  return ProbeJoin(s1, parallel, parallel_stats,
                   [&](const Path& p1, const auto& emit) {
                     for (const Path* p2 : by_first.ForFirst(p1.Last())) {
                       emit(Path::ConcatUnchecked(p1, *p2));
                     }
                   });
}

PathSet JoinOutEdges(const PropertyGraph& g, const PathSet& s1,
                     LabelId label, const ParallelOptions& parallel,
                     ParallelStats* parallel_stats) {
  // The label CSR run of Last(p1) is the bucket PathFirstIndex would hold
  // for Last(p1) over EdgesWithLabelOf(g, label): both list the node's
  // L-edges in edge-id order.
  return ProbeJoin(s1, parallel, parallel_stats,
                   [&](const Path& p1, const auto& emit) {
                     for (EdgeId e : g.OutEdgesWithLabel(p1.Last(), label)) {
                       emit(Path::ConcatUnchecked(p1, Path::EdgeOf(g, e)));
                     }
                   });
}

// ∪/∩/∖ move whole sets around without changing any path, so every hash
// is already known (PathSet::hash_of) — no rehashing.

PathSet Union(PathSet s1, PathSet s2) {
  s1.Reserve(s1.size() + s2.size());
  PathSet::Contents right = std::move(s2).Release();
  for (size_t i = 0; i < right.paths.size(); ++i) {
    s1.InsertHashed(std::move(right.paths[i]), right.hashes[i]);
  }
  return s1;
}

PathSet Intersect(const PathSet& s1, const PathSet& s2) {
  PathSet out;
  for (size_t i = 0; i < s1.size(); ++i) {
    const size_t h = s1.hash_of(i);
    if (s2.ContainsHashed(s1[i], h)) out.InsertHashed(s1[i], h);
  }
  return out;
}

PathSet Difference(const PathSet& s1, const PathSet& s2) {
  PathSet out;
  for (size_t i = 0; i < s1.size(); ++i) {
    const size_t h = s1.hash_of(i);
    if (!s2.ContainsHashed(s1[i], h)) out.InsertHashed(s1[i], h);
  }
  return out;
}

}  // namespace pathalg

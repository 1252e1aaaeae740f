#include "algebra/core_ops.h"

#include <utility>
#include <vector>

#include "path/path_index.h"

namespace pathalg {

namespace {

/// Runs `fill(i, list)` for every i ∈ [0, n) in contiguous chunks, each
/// appending to its chunk-private PathList, then inserts the chunk lists in
/// chunk index order — the exact enumeration order of a serial loop, and
/// the merge's InsertHashed dedups exactly where the serial loop would (a ◦
/// can collide when zero-length paths join). Chunk bodies carry each path's
/// hash, so the merge never rehashes; that recomputation was the merge
/// phase's Amdahl ceiling. A serial run is one chunk.
template <typename Fill>
PathSet ChunkedFill(size_t n, const ParallelOptions& parallel,
                    ParallelStats* parallel_stats, const Fill& fill) {
  // ParallelFor books its inline runs as serial fallbacks but skips empty
  // ranges; an empty input is a serial run of this operator all the same.
  if (n == 0 && parallel_stats != nullptr && parallel.EffectiveThreads() > 1) {
    ++parallel_stats->serial_fallbacks;
  }
  const ChunkLayout layout = ThreadPool::PlanFor(n, parallel);
  std::vector<PathList> produced(layout.num_chunks);
  ThreadPool::Shared().ParallelFor(
      n, parallel, parallel_stats,
      [&](size_t chunk, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) fill(i, &produced[chunk]);
      });
  PathSet out;
  for (const PathList& chunk : produced) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      out.InsertHashed(chunk[i], chunk.hash_of(i));
    }
  }
  return out;
}

}  // namespace

PathSet Select(const PropertyGraph& g, const PathSet& s,
               const Condition& condition, const ParallelOptions& parallel,
               ParallelStats* parallel_stats) {
  // The input is duplicate-free, so the kept paths appear in exactly the
  // input order.
  return ChunkedFill(s.size(), parallel, parallel_stats,
                     [&](size_t i, PathList* out) {
                       if (condition.Evaluate(g, s[i])) {
                         out->Append(s[i], s.hash_of(i));
                       }
                     });
}

PathSet Join(const PathSet& s1, const PathSet& s2,
             const ParallelOptions& parallel,
             ParallelStats* parallel_stats) {
  // CSR-style dense index of the right side by First(p2): node ids are
  // dense, so the per-p1 probe is an array index, not a hash lookup. Each
  // chunk emits its concatenations in (p1 order, bucket order).
  const PathFirstIndex by_first(s2.paths());
  return ChunkedFill(
      s1.size(), parallel, parallel_stats, [&](size_t i, PathList* out) {
        const PathRef p1 = s1[i];
        for (uint32_t j : by_first.ForFirst(p1.Last())) {
          out->AppendConcat(p1, s2[j],
                            HashOfConcat(s1.hash_of(i), s2[j], s2.hash_of(j)));
        }
      });
}

PathSet JoinOutEdges(const PropertyGraph& g, const PathSet& s1,
                     LabelId label, const ParallelOptions& parallel,
                     ParallelStats* parallel_stats) {
  // The label CSR run of Last(p1) is the bucket PathFirstIndex would hold
  // for Last(p1) over EdgesWithLabelOf(g, label): both list the node's
  // L-edges in edge-id order.
  return ChunkedFill(
      s1.size(), parallel, parallel_stats, [&](size_t i, PathList* out) {
        const PathRef p1 = s1[i];
        for (EdgeId e : g.OutEdgesWithLabel(p1.Last(), label)) {
          const EdgePathIds edge(g, e);
          out->AppendConcat(
              p1, edge,
              HashOfConcat(s1.hash_of(i), edge, PathRef(edge).Hash()));
        }
      });
}

// ∪/∩/∖ move whole sets around without changing any path, so every hash
// is already known (PathSet::hash_of) — no rehashing.

PathSet Union(PathSet s1, PathSet s2) {
  s1.Reserve(s1.size() + s2.size());
  for (size_t i = 0; i < s2.size(); ++i) s1.InsertHashed(s2[i], s2.hash_of(i));
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

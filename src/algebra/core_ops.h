#ifndef PATHALG_ALGEBRA_CORE_OPS_H_
#define PATHALG_ALGEBRA_CORE_OPS_H_

/// \file core_ops.h
/// The Core Path Algebra (Definition 3.1): selection σ, join ⋈ and union ∪
/// over sets of paths, plus the "natural graph operators missing from the
/// two proposals" (§1) — intersection and difference — which keep the
/// algebra closed under sets of paths.
///
/// All operators are pure functions PathSet×PathSet→PathSet (σ takes one
/// set); output insertion order is deterministic: σ preserves input order,
/// ⋈ enumerates left paths in order and right matches in order, ∪ takes the
/// left set followed by unseen right paths.
///
/// σ and ⋈ optionally fan out over a chunked work-stealing pool
/// (common/thread_pool.h). Parallel execution is byte-identical to serial:
/// the input is split into contiguous chunks, each chunk's output is
/// collected privately, and chunks are merged in chunk index order — the
/// exact enumeration order of the serial loop.

#include "algebra/condition.h"
#include "common/thread_pool.h"
#include "path/path_set.h"

namespace pathalg {

/// σ_c(S) = {p ∈ S | ev(c, p) = True}.
PathSet Select(const PropertyGraph& g, const PathSet& s,
               const Condition& condition,
               const ParallelOptions& parallel = {},
               ParallelStats* parallel_stats = nullptr);

/// S ⋈ S' = {p1 ◦ p2 | p1 ∈ S, p2 ∈ S', Last(p1) = First(p2)}.
/// Dense index on the connecting node; the probe side (s1) is chunked
/// under parallel execution.
PathSet Join(const PathSet& s1, const PathSet& s2,
             const ParallelOptions& parallel = {},
             ParallelStats* parallel_stats = nullptr);

/// S ⋈ σ_{label(edge(1))=L}(Edges(G)) without materializing the right
/// side: each p1 ∈ S, in order, is extended by the L-labelled out-edges of
/// Last(p1) in edge-id order. Byte-identical (same paths, same order) to
/// Join(S, EdgesWithLabelOf(g, label)); kNoLabel matches nothing.
PathSet JoinOutEdges(const PropertyGraph& g, const PathSet& s1,
                     LabelId label, const ParallelOptions& parallel = {},
                     ParallelStats* parallel_stats = nullptr);

/// S ∪ S' with set semantics (duplicates eliminated): the paths of s1,
/// then those of s2 not in s1, each in its set's order. Consumes both
/// inputs — s1 becomes the result, and s2's unseen paths are appended to
/// its arena.
PathSet Union(PathSet s1, PathSet s2);

/// S ∩ S' — extension beyond the paper's core (§1 mentions the standards
/// lack such natural operators).
PathSet Intersect(const PathSet& s1, const PathSet& s2);

/// S − S' — extension, see Intersect.
PathSet Difference(const PathSet& s1, const PathSet& s2);

}  // namespace pathalg

#endif  // PATHALG_ALGEBRA_CORE_OPS_H_

#ifndef PATHALG_ALGEBRA_SOLUTION_SPACE_H_
#define PATHALG_ALGEBRA_SOLUTION_SPACE_H_

/// \file solution_space.h
/// The Extended Path Algebra (§5): solution spaces (Definition 5.1) and the
/// three operators that manipulate them —
///
///   γψ  group-by    PathSet → SolutionSpace   (ψ ∈ {∅,S,T,L,ST,SL,TL,STL})
///   τθ  order-by    SolutionSpace → SolutionSpace (θ ∈ {P,G,A,PG,PA,GA,PGA})
///   π   projection  SolutionSpace → PathSet   (Algorithm 1)
///
/// A solution space SS = (S, G, P, α, β, Δ) organizes a set of paths S into
/// groups (α) inside partitions (β); Δ assigns a positive-integer rank to
/// every path, group and partition, inducing the "virtual order" that τ
/// manipulates and π consumes. γ initializes every Δ to 1 (no order); τ
/// redefines Δ per Table 6 (MinL of partitions/groups, Len of paths).
///
/// The space owns the paths moved into it. γ takes over the flat storage
/// of the set it is handed — id arena, offsets and stored hashes
/// (PathList, path_set.h) — without copying a path; τ consumes its input
/// space and rewrites Δ in place; π consumes its input space and copies
/// only the selected paths' ids into its result. The evaluator owns every
/// intermediate value, so it moves each one into the next operator. A
/// caller that passes an lvalue keeps it — the by-value parameter makes
/// the copy.
///
/// Layout: γ's one stable sort of path indices by (source, target, length)
/// key makes every group a contiguous run of the sorted order, and every
/// partition a contiguous run of groups. So α⁻¹ and β⁻¹ are offset arrays
/// over one index vector each, not a vector per group or partition, and
/// freeing a space costs a constant number of frees.
///
/// Deviation noted: for an empty input set the paper's γ∅ formally creates
/// one empty group in one partition; we create an empty space (no
/// partitions) — π yields ∅ either way and MinL of an empty group would be
/// undefined.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "path/path_set.h"

namespace pathalg {

/// γψ grouping criteria (§5.1): which of Source / Target / Length take part
/// in the partition/group keys. S and T shape partitions; L shapes groups.
enum class GroupKey { kNone, kS, kT, kL, kST, kSL, kTL, kSTL };

/// τθ ordering criteria (§5.2, Table 6).
enum class OrderKey { kP, kG, kA, kPG, kPA, kGA, kPGA };

const char* GroupKeyToString(GroupKey k);
const char* OrderKeyToString(OrderKey k);

/// Whether ψ partitions by source / target, and groups by length.
bool GroupKeyUsesSource(GroupKey k);
bool GroupKeyUsesTarget(GroupKey k);
bool GroupKeyUsesLength(GroupKey k);
bool OrderKeyOrdersPartitions(OrderKey k);
bool OrderKeyOrdersGroups(OrderKey k);
bool OrderKeyOrdersPaths(OrderKey k);

struct ProjectionSpec;

/// A materialized solution space that owns its paths (and their hashes,
/// which π hands on to its output set). Indices are dense: partitions and
/// groups are numbered canonically by their (source, target, length) keys —
/// never by input enumeration order — and paths keep set insertion order
/// within their group. This keeps every operator deterministic and makes
/// spaces built from differently-ordered but equal path sets identical.
class SolutionSpace {
 public:
  size_t num_paths() const { return paths_.size(); }
  size_t num_groups() const { return group_partition_.size(); }
  size_t num_partitions() const { return partition_rank_.size(); }

  PathRef path(size_t i) const { return paths_[i]; }
  const PathList& paths() const { return paths_; }

  /// α: the group containing path i.
  uint32_t GroupOfPath(size_t i) const { return path_group_[i]; }
  /// β: the partition containing group g.
  uint32_t PartitionOfGroup(size_t g) const { return group_partition_[g]; }

  /// Inverse images; groups of a partition come sorted by their length
  /// component, paths of a group in set insertion order.
  IdSpan PathsOfGroup(size_t g) const {
    return {group_paths_.data() + group_begin_[g],
            group_begin_[g + 1] - group_begin_[g]};
  }
  IdSpan GroupsOfPartition(size_t p) const {
    return {partition_groups_.data() + partition_begin_[p],
            partition_begin_[p + 1] - partition_begin_[p]};
  }

  /// Δ ranks (γ sets all to 1; τ rewrites them).
  size_t PathRank(size_t i) const { return path_rank_[i]; }
  size_t GroupRank(size_t g) const { return group_rank_[g]; }
  size_t PartitionRank(size_t p) const { return partition_rank_[p]; }

  /// MinL(G): length of the shortest path in group g (§5.2).
  size_t MinLenOfGroup(size_t g) const;
  /// MinL(P): minimum MinL over the groups of partition p (§5.2).
  size_t MinLenOfPartition(size_t p) const;

  /// Tabular rendering mirroring the paper's Table 5: one row per path with
  /// partition, group, MinL(P), MinL(G) and Len(p) columns.
  std::string ToTableString(const PropertyGraph& g) const;

 private:
  friend SolutionSpace GroupBy(PathSet s, GroupKey key);
  friend SolutionSpace OrderBy(SolutionSpace ss, OrderKey key);
  friend Result<PathSet> Project(SolutionSpace ss,
                                 const ProjectionSpec& spec);

  /// The paths and their hashes, taken over from γ's input set.
  PathList paths_;
  std::vector<uint32_t> path_group_;
  std::vector<uint32_t> group_partition_;
  /// Group g's paths are group_paths_[group_begin_[g], group_begin_[g+1]):
  /// γ's sorted order, which π reorders in place, one run at a time.
  std::vector<uint32_t> group_paths_;
  std::vector<uint32_t> group_begin_;
  /// Partition p's groups are partition_groups_[partition_begin_[p],
  /// partition_begin_[p+1]): consecutive group numbers after γ, reordered
  /// in place by π.
  std::vector<uint32_t> partition_groups_;
  std::vector<uint32_t> partition_begin_;
  std::vector<size_t> path_rank_;
  std::vector<size_t> group_rank_;
  std::vector<size_t> partition_rank_;
};

/// γψ(S) (§5.1): partitions by the S/T components of ψ, groups by the L
/// component, Δ ≡ 1. Takes over the paths of `s`.
SolutionSpace GroupBy(PathSet s, GroupKey key);

/// τθ(SS) (§5.2, Table 6): returns SS with Δ replaced by Δ′, rewritten in
/// place.
SolutionSpace OrderBy(SolutionSpace ss, OrderKey key);

/// Projection parameters (#P, #G, #A); nullopt renders the paper's `*`.
/// Counts must be ≥ 1 ("each # is either the symbol * or a positive
/// integer"); 0 is rejected by Project.
struct ProjectionSpec {
  std::optional<size_t> partitions;
  std::optional<size_t> groups;
  std::optional<size_t> paths;

  std::string ToString() const;
};

/// π(#P,#G,#A)(SS): Algorithm 1. Sorts partitions and groups by Δ (stable —
/// ties keep first-occurrence order, making ANY-style selections
/// deterministic in this implementation) and paths by (Δ, canonical path
/// order), and emits the requested prefix of each level, copying the
/// selected paths out of `ss`.
Result<PathSet> Project(SolutionSpace ss, const ProjectionSpec& spec);

}  // namespace pathalg

#endif  // PATHALG_ALGEBRA_SOLUTION_SPACE_H_

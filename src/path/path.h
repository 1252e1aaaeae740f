#ifndef PATHALG_PATH_PATH_H_
#define PATHALG_PATH_PATH_H_

/// \file path.h
/// Paths as first-class values (§2.2): a path is an alternating sequence
/// (n1, e1, n2, ..., ek, nk+1) with ρ(ei) = (ni, ni+1). A path of length 0
/// is a single node. Operators needing λ/ν take the graph as an argument
/// (see path_ops.h).
///
/// A path is stored as one run of 2k+1 ids: its k+1 nodes, then its k
/// edges. Two runs per path rather than interleaved ids, because the
/// restrictor checks and the ϕ walkers scan nodes and edges separately and
/// get contiguous spans this way; a copy or a concatenation is two or four
/// memcpys either way. `PathRef` is a read-only view of such a run — two
/// words, no ownership — and is what every operator reads: a `PathSet`
/// hands out `PathRef`s into its id arena (path_set.h), and an owning
/// `Path` is a `PathRef` over a buffer of its own, so a `Path` converts to
/// a `PathRef` implicitly. The owning `Path` is only for callers that need
/// a value (tests, `PathSet::Sorted()`, one-off constructions).
///
/// Hash(p) is a polynomial over the interleaved id sequence (n1, e1, n2,
/// ..., nk+1), so it composes over concatenation (HashOfConcat): extending
/// a path whose hash is known costs O(segment). No output order depends on
/// a hash.
///
/// The paper's path operators (§3.1) use 1-based positions: Node(p, i) is
/// the i-th node, Edge(p, j) the j-th edge. This API mirrors that.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/property_graph.h"

namespace pathalg {

/// A read-only run of 32-bit ids (the nodes or edges of a path, or a list
/// of indices): the C++17 stand-in for std::span<const uint32_t>. Does not
/// own its elements. Compares element-wise (== and lexicographic <).
class IdSpan {
 public:
  using value_type = uint32_t;
  using iterator = const uint32_t*;
  using const_iterator = const uint32_t*;

  constexpr IdSpan() = default;
  constexpr IdSpan(const uint32_t* data, size_t size)
      : data_(data), size_(size) {}
  /// Views `v`, which must outlive the span.
  IdSpan(const std::vector<uint32_t>& v)
      : data_(v.data()), size_(v.size()) {}

  const uint32_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint32_t* begin() const { return data_; }
  const uint32_t* end() const { return data_ + size_; }
  uint32_t operator[](size_t i) const { return data_[i]; }
  uint32_t front() const { return data_[0]; }
  uint32_t back() const { return data_[size_ - 1]; }

  friend bool operator==(IdSpan a, IdSpan b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator!=(IdSpan a, IdSpan b) { return !(a == b); }
  friend bool operator<(IdSpan a, IdSpan b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

/// A read-only view of one path's ids: nodes n1..nk+1, then edges e1..ek.
/// Every accessor is O(1). Valid while the storage it views is alive and
/// unmoved — for a PathSet, until the next insertion.
class PathRef {
 public:
  /// The empty/invalid path (no nodes). Valid paths always have at least
  /// one node; empty paths only appear as moved-from or default state.
  constexpr PathRef() = default;
  /// Views `num_ids` ids at `ids` in the layout above; `num_ids` is 0 (the
  /// empty path) or 2k+1 for a path of length k.
  constexpr PathRef(const uint32_t* ids, size_t num_ids)
      : ids_(ids), num_ids_(num_ids) {}

  bool empty() const { return num_ids_ == 0; }

  /// Len(p): number of edges (§3.1).
  size_t Len() const { return num_ids_ / 2; }

  /// First(p) / Last(p); precondition: !empty().
  NodeId First() const { return ids_[0]; }
  NodeId Last() const { return ids_[Len()]; }

  /// Node(p, i), 1-based; kInvalidId when out of range [1, Len()+1].
  NodeId NodeAt(size_t i) const {
    return (i >= 1 && i <= num_ids_ - Len()) ? ids_[i - 1] : kInvalidId;
  }

  /// Edge(p, j), 1-based; kInvalidId when out of range [1, Len()].
  EdgeId EdgeAt(size_t j) const {
    return (j >= 1 && j <= Len()) ? ids_[num_ids_ - Len() + j - 1]
                                  : kInvalidId;
  }

  IdSpan nodes() const { return {ids_, num_ids_ - Len()}; }
  IdSpan edges() const { return {ids_ + (num_ids_ - Len()), Len()}; }
  /// The stored run: nodes(), then edges().
  IdSpan ids() const { return {ids_, num_ids_}; }

  /// Classification (§2.2):
  /// acyclic — all nodes distinct.
  bool IsAcyclic() const;
  /// simple — all nodes distinct except possibly first == last.
  bool IsSimple() const;
  /// trail — all edges distinct.
  bool IsTrail() const;

  /// Checks ρ-consistency against `g`: every edge exists and connects the
  /// adjacent nodes of the sequence.
  Status Validate(const PropertyGraph& g) const;

  /// Paths are equal iff they have identical id sequences (§2.2); the total
  /// order (by length, then lexicographic node ids, then edge ids) gives
  /// result sets a canonical order. Equal lengths mean equal layouts, so
  /// both compare the stored runs directly.
  bool operator==(PathRef other) const { return ids() == other.ids(); }
  bool operator!=(PathRef other) const { return !(*this == other); }
  bool operator<(PathRef other) const {
    if (Len() != other.Len()) return Len() < other.Len();
    return ids() < other.ids();
  }

  size_t Hash() const;

  /// Renders with display names: "(n1, e1, n2)".
  std::string ToString(const PropertyGraph& g) const;
  /// Renders with raw ids: "(#0, #0, #1)". Useful without a graph at hand.
  std::string ToString() const;

 private:
  friend class Path;

  const uint32_t* ids_ = nullptr;
  size_t num_ids_ = 0;
};

/// The odd base of the path hash polynomial.
inline constexpr size_t kPathHashBase = 0xff51afd7ed558ccdULL;

/// One step of the path hash: folds the next id of the interleaved
/// sequence into `h`.
inline size_t PathHashStep(size_t h, uint32_t id) {
  return h * kPathHashBase + id + 1;
}

/// Hash(p1 ◦ p2) from hash1 == p1.Hash() and hash2 == p2.Hash(), in
/// O(Len(p2)); precondition as Path::ConcatUnchecked.
size_t HashOfConcat(size_t hash1, PathRef p2, size_t hash2);

/// Appends the run of p1 ◦ p2 to `ids`; precondition as
/// Path::ConcatUnchecked, and neither path views `*ids`.
void AppendConcatIds(PathRef p1, PathRef p2, std::vector<uint32_t>* ids);

/// The run of the length-one path of edge `e`, held by value: a PathRef
/// source that costs no allocation.
struct EdgePathIds {
  EdgePathIds(const PropertyGraph& g, EdgeId e)
      : ids{g.Source(e), g.Target(e), e} {}
  operator PathRef() const { return {ids, 3}; }

  uint32_t ids[3];
};

/// An owning path: a PathRef over an id buffer of its own.
class Path : public PathRef {
 public:
  /// Constructs the zero-length path (n).
  static Path SingleNode(NodeId n) { return Path({n}, {}); }

  /// Constructs the length-one path (src, e, dst).
  static Path SingleEdge(NodeId src, EdgeId e, NodeId dst) {
    return Path({src, dst}, {e});
  }

  /// Constructs the length-one path for edge `e` of `g`.
  static Path EdgeOf(const PropertyGraph& g, EdgeId e) {
    return SingleEdge(g.Source(e), e, g.Target(e));
  }

  /// Constructs from explicit sequences; requires
  /// nodes.size() == edges.size() + 1. Does not validate ρ against a graph —
  /// use Validate() for that.
  Path(std::vector<NodeId> nodes, const std::vector<EdgeId>& edges);

  /// Copies the viewed path.
  explicit Path(PathRef p) : storage_(p.ids().begin(), p.ids().end()) {
    Bind();
  }

  Path() = default;
  Path(const Path& other) : PathRef(), storage_(other.storage_) { Bind(); }
  Path(Path&& other) noexcept : storage_(std::move(other.storage_)) {
    Bind();
    other.Reset();
  }
  Path& operator=(const Path& other) {
    if (this != &other) {
      storage_ = other.storage_;
      Bind();
    }
    return *this;
  }
  Path& operator=(Path&& other) noexcept {
    if (this != &other) {
      storage_ = std::move(other.storage_);
      Bind();
      other.Reset();
    }
    return *this;
  }

  /// Path concatenation p1 ◦ p2 (§3.1). Requires Last(p1) == First(p2);
  /// returns InvalidArgument otherwise.
  static Result<Path> Concat(PathRef p1, PathRef p2);

  /// Unchecked concatenation for operator inner loops; precondition:
  /// !p1.empty() && !p2.empty() && p1.Last() == p2.First().
  static Path ConcatUnchecked(PathRef p1, PathRef p2);

 private:
  void Bind() {
    ids_ = storage_.data();
    num_ids_ = storage_.size();
  }
  void Reset() {
    storage_.clear();
    Bind();
  }

  std::vector<uint32_t> storage_;
};

}  // namespace pathalg

#endif  // PATHALG_PATH_PATH_H_

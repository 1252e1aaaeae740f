#ifndef PATHALG_PATH_PATH_SET_H_
#define PATHALG_PATH_PATH_SET_H_

/// \file path_set.h
/// The primary data structure of the algebra: a duplicate-free set of paths
/// (§1: "a set of paths serves as the primary data structure for input and
/// output in the algebra operators"). Iteration order is insertion order,
/// which makes every operator deterministic; `Sorted()` gives the canonical
/// (length, ids) order used by tests and printers.
///
/// Storage is flat (PathList): one `uint32_t` id arena holding every
/// path's run (nodes, then edges; path.h), the end offset of each run, and
/// each path's stored hash. Reads hand out PathRef views into the arena,
/// valid until the next insertion. Inserting copies the path's ids onto the
/// end of the arena, so an insert allocates nothing but amortized vector
/// growth, and destroying a set — or the partial answer of a failed query —
/// frees a constant number of blocks, whatever the number of paths.
///
/// The dedup index is a flat open-addressing table of `uint32_t` slots, each
/// holding a path's insertion index plus one (0 marks an empty slot). A
/// path's hash picks its home slot by Fibonacci hashing (the high bits of
/// hash × 2⁶⁴/φ); linear probing walks on from there, comparing the stored
/// hash before comparing ids. The capacity is a power of two kept at least
/// twice the size, so probe chains stay short; iteration never touches the
/// table. `Insert` hashes for you; `InsertHashed` takes a caller-computed
/// hash — the parallel operators' chunk bodies hash their candidates off
/// the merge thread, extensions compose the hash (HashOfConcat, path.h),
/// and operators that move paths between sets pass `hash_of(i)` along.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "path/path.h"

namespace pathalg {

/// An append-only, insertion-ordered list of paths with their hashes,
/// stored flat: the id arena, one end offset per path, one hash per path.
/// No dedup. A PathSet stores one; an operator's chunk body writes its
/// candidates into one; a consuming operator takes one over
/// (PathSet::Release). Never append a PathRef into the list's own arena:
/// the append may reallocate it.
class PathList {
 public:
  /// Forward iterator in insertion order; dereferences to a PathRef by
  /// value.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PathRef;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = PathRef;

    Iterator() = default;
    Iterator(const PathList* list, size_t i) : list_(list), i_(i) {}

    PathRef operator*() const { return (*list_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }
    bool operator!=(const Iterator& o) const { return i_ != o.i_; }

   private:
    const PathList* list_ = nullptr;
    size_t i_ = 0;
  };

  size_t size() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }

  PathRef operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {ids_.data() + begin, ends_[i] - begin};
  }
  /// The stored hash of path i (== (*this)[i].Hash()).
  size_t hash_of(size_t i) const { return hashes_[i]; }

  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }

  /// Appends the path with node run `nodes` and edge run `edges`
  /// (nodes.size() == edges.size() + 1); precondition: `hash` is its Hash().
  void Append(IdSpan nodes, IdSpan edges, size_t hash) {
    ids_.insert(ids_.end(), nodes.begin(), nodes.end());
    ids_.insert(ids_.end(), edges.begin(), edges.end());
    Seal(hash);
  }
  void Append(PathRef p, size_t hash) {
    ids_.insert(ids_.end(), p.ids().begin(), p.ids().end());
    Seal(hash);
  }
  /// Appends p1 ◦ p2 (precondition as Path::ConcatUnchecked) with its
  /// hash, HashOfConcat(p1's hash, p2, p2's hash).
  void AppendConcat(PathRef p1, PathRef p2, size_t hash) {
    AppendConcatIds(p1, p2, &ids_);
    Seal(hash);
  }

  /// Pre-sizes the per-path arrays for `n` paths in total.
  void Reserve(size_t n) {
    ends_.reserve(n);
    hashes_.reserve(n);
  }

  /// Empties the list, keeping its capacity.
  void clear() {
    ids_.clear();
    ends_.clear();
    hashes_.clear();
  }

  /// Same paths in the same order.
  bool operator==(const PathList& other) const {
    return ids_ == other.ids_ && ends_ == other.ends_;
  }
  bool operator!=(const PathList& other) const { return !(*this == other); }

 private:
  void Seal(size_t hash) {
    ends_.push_back(ids_.size());
    hashes_.push_back(hash);
  }

  std::vector<uint32_t> ids_;
  /// ends_[i] is one past path i's last id; path i starts at ends_[i − 1]
  /// (or 0).
  std::vector<size_t> ends_;
  std::vector<size_t> hashes_;
};

/// A duplicate-free set of paths in insertion order: a PathList plus the
/// dedup index described above.
class PathSet {
 public:
  PathSet() = default;

  /// Builds a set from a vector, deduplicating.
  explicit PathSet(const std::vector<Path>& paths) {
    for (const Path& p : paths) Insert(p);
  }

  /// Inserts a copy of `p`'s ids; returns false if it was already present.
  /// `p` must not view this set's own storage unless it is one of its
  /// paths (then it is a duplicate and nothing is appended).
  bool Insert(PathRef p) { return InsertHashed(p, p.Hash()); }

  /// Inserts `p` with its precomputed hash; precondition: hash == p.Hash().
  /// Byte-identical behavior to Insert — same dedup decisions, same
  /// insertion order — minus the hash computation on this thread.
  bool InsertHashed(PathRef p, size_t hash);

  bool Contains(PathRef p) const { return ContainsHashed(p, p.Hash()); }

  /// Contains with a caller-computed hash; precondition: hash == p.Hash().
  /// The dedup-aware budget checks (algebra/eval_budget.h) probe candidates
  /// that were hashed off the merge thread.
  bool ContainsHashed(PathRef p, size_t hash) const;

  size_t size() const { return paths_.size(); }
  bool empty() const { return paths_.empty(); }

  PathRef operator[](size_t i) const { return paths_[i]; }
  PathList::Iterator begin() const { return paths_.begin(); }
  PathList::Iterator end() const { return paths_.end(); }
  /// The stored paths in insertion order (compare two of these for
  /// order-sensitive equality).
  const PathList& paths() const { return paths_; }

  /// The stored hash of (*this)[i] (== (*this)[i].Hash()). Set-to-set
  /// operators (∪/∩/∖, σ, ρ, γ) propagate these instead of rehashing every
  /// path they copy.
  size_t hash_of(size_t i) const { return paths_.hash_of(i); }

  /// Hands over the stored paths and hashes without copying them; a
  /// consuming operator calls this on the set it owns. The set is left
  /// empty.
  PathList Release() &&;

  /// Paths in canonical (length, node-ids, edge-ids) order.
  std::vector<Path> Sorted() const;

  /// Set-level equality (order-insensitive).
  bool operator==(const PathSet& other) const;
  bool operator!=(const PathSet& other) const { return !(*this == other); }

  /// Pre-sizes storage and the dedup index for `n` expected paths.
  void Reserve(size_t n);

  /// Empties the set, keeping its storage and table capacity.
  void clear();

  /// Renders as "{(n1, e1, n2), ...}" in canonical order.
  std::string ToString(const PropertyGraph& g) const;

 private:
  /// The home slot of `hash` in a table of 2^(64 − shift_) slots.
  size_t HomeSlot(size_t hash) const {
    return static_cast<size_t>((uint64_t{hash} * 0x9e3779b97f4a7c15ULL) >>
                               shift_);
  }

  /// Rebuilds the table with `capacity` slots (a power of two) from the
  /// stored hashes; stored paths are distinct, so no equality test is
  /// needed.
  void Rehash(size_t capacity);

  PathList paths_;
  /// Open-addressing table: slot value i + 1 refers to path i, 0 is empty.
  /// Its size is 0 or a power of two ≥ 2 * size(); a set thus holds fewer
  /// than 2^32 − 1 paths.
  std::vector<uint32_t> slots_;
  /// 64 − log2(slots_.size()), the HomeSlot shift.
  unsigned shift_ = 64;
};

}  // namespace pathalg

#endif  // PATHALG_PATH_PATH_SET_H_

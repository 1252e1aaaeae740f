#ifndef PATHALG_PATH_PATH_SET_H_
#define PATHALG_PATH_PATH_SET_H_

/// \file path_set.h
/// The primary data structure of the algebra: a duplicate-free set of paths
/// (§1: "a set of paths serves as the primary data structure for input and
/// output in the algebra operators"). Iteration order is insertion order,
/// which makes every operator deterministic; `Sorted()` gives the canonical
/// (length, ids) order used by tests and printers.
///
/// The dedup index is a flat open-addressing table of `uint32_t` slots, each
/// holding an index into the insertion-ordered storage plus one (0 marks an
/// empty slot). A path's hash picks its home slot by its low bits; linear
/// probing walks on from there, comparing the stored hash before testing
/// full Path equality. The capacity is a power of two kept at least twice
/// the size, so probe chains stay short, and an insert allocates nothing
/// but amortized vector growth. The set never stores a second copy of any
/// path, and iteration never touches the table. `Insert` hashes for you;
/// `InsertHashed` takes a caller-computed hash — the parallel operators'
/// chunk bodies hash their candidates off the merge thread, and operators
/// that move paths between sets pass the stored `hash_of(i)` along.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "path/path.h"

namespace pathalg {

class PathSet {
 public:
  PathSet() = default;

  /// Builds a set from a vector, deduplicating.
  explicit PathSet(const std::vector<Path>& paths) {
    for (const Path& p : paths) Insert(p);
  }

  /// Inserts `p`; returns false if it was already present.
  bool Insert(Path p) {
    const size_t h = p.Hash();
    return InsertHashed(std::move(p), h);
  }

  /// Inserts `p` with its precomputed hash; precondition: hash == p.Hash().
  /// Byte-identical behavior to Insert — same dedup decisions, same
  /// insertion order — minus the hash computation on this thread.
  bool InsertHashed(Path p, size_t hash);

  bool Contains(const Path& p) const;

  /// Contains with a caller-computed hash; precondition: hash == p.Hash().
  /// The dedup-aware budget checks (algebra/eval_budget.h) probe candidates
  /// that were hashed off the merge thread.
  bool ContainsHashed(const Path& p, size_t hash) const;

  size_t size() const { return paths_.size(); }
  bool empty() const { return paths_.empty(); }

  const Path& operator[](size_t i) const { return paths_[i]; }
  std::vector<Path>::const_iterator begin() const { return paths_.begin(); }
  std::vector<Path>::const_iterator end() const { return paths_.end(); }
  const std::vector<Path>& paths() const { return paths_; }

  /// The stored hash of paths()[i] (== paths()[i].Hash()). Set-to-set
  /// operators (∪/∩/∖, σ's serial loop, ρ, γ) propagate these instead of
  /// rehashing every path they copy or move.
  size_t hash_of(size_t i) const { return hashes_[i]; }

  /// The paths in insertion order and their hashes (hashes[i] ==
  /// paths[i].Hash()), released by Release().
  struct Contents {
    std::vector<Path> paths;
    std::vector<size_t> hashes;
  };

  /// Hands over the stored paths and hashes without copying them; a
  /// consuming operator calls this on the set it owns. The set is left
  /// empty.
  Contents Release() &&;

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
  /// Rebuilds the table with `capacity` slots (a power of two) from
  /// hashes_; stored paths are distinct, so no equality test is needed.
  void Rehash(size_t capacity);

  std::vector<Path> paths_;
  /// hashes_[i] == paths_[i].Hash(), for probing and hash propagation.
  std::vector<size_t> hashes_;
  /// Open-addressing table: slot value i + 1 refers to paths_[i], 0 is
  /// empty. Its size is 0 or a power of two ≥ 2 * paths_.size(). A set
  /// thus holds fewer than 2^32 − 1 paths; at ≥ 48 bytes a path, memory
  /// runs out long before that.
  std::vector<uint32_t> slots_;
};

}  // namespace pathalg

#endif  // PATHALG_PATH_PATH_SET_H_

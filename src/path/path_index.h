#ifndef PATHALG_PATH_PATH_INDEX_H_
#define PATHALG_PATH_PATH_INDEX_H_

/// \file path_index.h
/// CSR-style index of a path collection by First(p), the access pattern of
/// every endpoint join (⋈, ϕ expansion): node ids are dense, so a flat
/// offsets/slots layout replaces the unordered_map<NodeId, vector<Path*>>
/// the operators used before — bucket lookup becomes one array index and a
/// contiguous scan instead of a hash probe per frontier path.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "path/path.h"
#include "path/path_set.h"

namespace pathalg {

/// Immutable index of a PathList by First(p): it holds the positions of
/// the indexed paths, so a caller reads each match and its stored hash
/// from the list, which must outlive the index.
class PathFirstIndex {
 public:
  PathFirstIndex() = default;
  explicit PathFirstIndex(const PathList& paths)
      : PathFirstIndex(paths, [](PathRef) { return true; }) {}
  /// Indexes only the non-empty paths p with keep(p), counting-sorted by
  /// First(p); input order within each bucket, so operators stay
  /// deterministic.
  template <typename Keep>
  PathFirstIndex(const PathList& paths, const Keep& keep) {
    std::vector<uint32_t> kept;
    NodeId max_first = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
      const PathRef p = paths[i];
      if (p.empty() || !keep(p)) continue;
      kept.push_back(static_cast<uint32_t>(i));
      max_first = std::max(max_first, p.First());
    }
    if (kept.empty()) return;
    offsets_.assign(size_t{max_first} + 2, 0);
    for (uint32_t i : kept) offsets_[size_t{paths[i].First()} + 1]++;
    for (size_t n = 0; n + 1 < offsets_.size(); ++n) {
      offsets_[n + 1] += offsets_[n];
    }
    slots_.resize(kept.size());
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (uint32_t i : kept) slots_[cursor[paths[i].First()]++] = i;
  }

  /// Positions of the paths whose First() == n; empty when none (or n out
  /// of range).
  IdSpan ForFirst(NodeId n) const {
    if (size_t{n} + 1 >= offsets_.size()) return IdSpan();
    return {slots_.data() + offsets_[n], offsets_[n + 1] - offsets_[n]};
  }

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

 private:
  // offsets_ has max(First)+2 entries; slots_[offsets_[n], offsets_[n+1])
  // are the positions of the paths starting at node n, in input order.
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> slots_;
};

}  // namespace pathalg

#endif  // PATHALG_PATH_PATH_INDEX_H_

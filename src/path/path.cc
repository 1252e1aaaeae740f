#include "path/path.h"

#include <cassert>
#include <unordered_set>


namespace pathalg {

Path::Path(std::vector<NodeId> nodes, const std::vector<EdgeId>& edges)
    : storage_(std::move(nodes)) {
  assert(storage_.size() == edges.size() + 1);
  storage_.insert(storage_.end(), edges.begin(), edges.end());
  Bind();
}

Result<Path> Path::Concat(PathRef p1, PathRef p2) {
  if (p1.empty() || p2.empty()) {
    return Status::InvalidArgument("cannot concatenate an empty path");
  }
  if (p1.Last() != p2.First()) {
    return Status::InvalidArgument(
        "path concatenation requires Last(p1) == First(p2)");
  }
  return ConcatUnchecked(p1, p2);
}

Path Path::ConcatUnchecked(PathRef p1, PathRef p2) {
  Path out;
  AppendConcatIds(p1, p2, &out.storage_);
  out.Bind();
  return out;
}

void AppendConcatIds(PathRef p1, PathRef p2, std::vector<uint32_t>* ids) {
  ids->insert(ids->end(), p1.nodes().begin(), p1.nodes().end());
  ids->insert(ids->end(), p2.nodes().begin() + 1, p2.nodes().end());
  ids->insert(ids->end(), p1.edges().begin(), p1.edges().end());
  ids->insert(ids->end(), p2.edges().begin(), p2.edges().end());
}

size_t HashOfConcat(size_t hash1, PathRef p2, size_t hash2) {
  // hash2 weighs First(p2) by base^(2·Len(p2)); p1's terms shift up by the
  // same power, and the shared node counts once.
  size_t power = 1;
  for (size_t k = 0; k < 2 * p2.Len(); ++k) power *= kPathHashBase;
  return (hash1 - PathHashStep(0, p2.First())) * power + hash2;
}

namespace {

// These classification checks run once per candidate inside ϕ's frontier
// loop, so their constant factor is hot. Below the cutoff an O(L²)
// pairwise scan with zero allocations beats building an unordered_set per
// call by a wide margin; past it (rare — recursion budgets keep paths
// short) the hash set's O(L) takes over.
constexpr size_t kDistinctScanCutoff = 24;

/// True iff xs[0, limit) are pairwise distinct (small-size scan).
bool PrefixDistinctSmall(IdSpan xs, size_t limit) {
  for (size_t i = 1; i < limit; ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (xs[i] == xs[j]) return false;
    }
  }
  return true;
}

bool PrefixDistinctHashed(IdSpan xs, size_t limit) {
  std::unordered_set<uint32_t> seen;
  seen.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    if (!seen.insert(xs[i]).second) return false;
  }
  return true;
}

bool PrefixDistinct(IdSpan xs, size_t limit) {
  return limit <= kDistinctScanCutoff ? PrefixDistinctSmall(xs, limit)
                                      : PrefixDistinctHashed(xs, limit);
}

}  // namespace

bool PathRef::IsAcyclic() const {
  return PrefixDistinct(nodes(), nodes().size());
}

bool PathRef::IsSimple() const {
  const IdSpan ns = nodes();
  if (ns.size() <= 1) return true;
  // All nodes but the last must be pairwise distinct; the last may repeat
  // only the first (closed simple path / cycle).
  const size_t prefix = ns.size() - 1;
  if (!PrefixDistinct(ns, prefix)) return false;
  NodeId last = ns.back();
  if (last == ns.front()) return true;
  for (size_t i = 1; i < prefix; ++i) {
    if (ns[i] == last) return false;
  }
  return true;
}

bool PathRef::IsTrail() const {
  return PrefixDistinct(edges(), edges().size());
}

Status PathRef::Validate(const PropertyGraph& g) const {
  if (empty()) return Status::InvalidArgument("empty path");
  const IdSpan ns = nodes();
  const IdSpan es = edges();
  for (NodeId n : ns) {
    if (!g.IsValidNode(n)) {
      return Status::InvalidArgument("path references unknown node #" +
                                     std::to_string(n));
    }
  }
  for (size_t j = 0; j < es.size(); ++j) {
    EdgeId e = es[j];
    if (!g.IsValidEdge(e)) {
      return Status::InvalidArgument("path references unknown edge #" +
                                     std::to_string(e));
    }
    if (g.Source(e) != ns[j] || g.Target(e) != ns[j + 1]) {
      return Status::InvalidArgument(
          "edge " + std::string(g.EdgeName(e)) +
          " does not connect the adjacent path nodes (rho mismatch)");
    }
  }
  return Status::OK();
}

size_t PathRef::Hash() const {
  const IdSpan ns = nodes();
  const IdSpan es = edges();
  size_t h = 0;
  for (size_t i = 0; i < es.size(); ++i) {
    h = PathHashStep(PathHashStep(h, ns[i]), es[i]);
  }
  return empty() ? h : PathHashStep(h, ns.back());
}

std::string PathRef::ToString(const PropertyGraph& g) const {
  std::string out = "(";
  for (size_t i = 1; i <= nodes().size(); ++i) {
    if (i > 1) {
      out += ", ";
      out += g.EdgeName(EdgeAt(i - 1));
      out += ", ";
    }
    out += g.NodeName(NodeAt(i));
  }
  out += ")";
  return out;
}

std::string PathRef::ToString() const {
  std::string out = "(";
  for (size_t i = 1; i <= nodes().size(); ++i) {
    if (i > 1) {
      out += ", #" + std::to_string(EdgeAt(i - 1)) + ", ";
    }
    out += "#" + std::to_string(NodeAt(i));
  }
  out += ")";
  return out;
}

}  // namespace pathalg

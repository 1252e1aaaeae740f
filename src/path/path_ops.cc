#include "path/path_ops.h"

namespace pathalg {

PathSet NodesOf(const PropertyGraph& g) {
  PathSet out;
  for (NodeId n = 0; n < g.num_nodes(); ++n) out.Insert(PathRef(&n, 1));
  return out;
}

PathSet EdgesOf(const PropertyGraph& g) {
  PathSet out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) out.Insert(EdgePathIds(g, e));
  return out;
}

PathSet EdgesWithLabelOf(const PropertyGraph& g, LabelId label) {
  PathSet out;
  for (EdgeId e : g.EdgesWithLabel(label)) out.Insert(EdgePathIds(g, e));
  return out;
}

std::string_view LabelOfNodeAt(const PropertyGraph& g, PathRef p,
                               size_t i) {
  NodeId n = p.NodeAt(i);
  if (n == kInvalidId) return {};
  return g.NodeLabel(n);
}

std::string_view LabelOfEdgeAt(const PropertyGraph& g, PathRef p,
                               size_t j) {
  EdgeId e = p.EdgeAt(j);
  if (e == kInvalidId) return {};
  return g.EdgeLabel(e);
}

const Value* PropOfNodeAt(const PropertyGraph& g, PathRef p, size_t i,
                          std::string_view key) {
  NodeId n = p.NodeAt(i);
  if (n == kInvalidId) return nullptr;
  return g.NodeProperty(n, key);
}

const Value* PropOfEdgeAt(const PropertyGraph& g, PathRef p, size_t j,
                          std::string_view key) {
  EdgeId e = p.EdgeAt(j);
  if (e == kInvalidId) return nullptr;
  return g.EdgeProperty(e, key);
}

std::string PathWord(const PropertyGraph& g, PathRef p) {
  std::string out;
  for (size_t j = 1; j <= p.Len(); ++j) {
    out += std::string(LabelOfEdgeAt(g, p, j));
  }
  return out;
}

}  // namespace pathalg

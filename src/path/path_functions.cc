#include "path/path_functions.h"

#include <unordered_set>

namespace pathalg {

std::vector<NodeId> NodesAlong(PathRef p) {
  return {p.nodes().begin(), p.nodes().end()};
}

std::vector<EdgeId> EdgesAlong(PathRef p) {
  return {p.edges().begin(), p.edges().end()};
}

std::vector<std::optional<Value>> CollectNodeProperty(
    const PropertyGraph& g, PathRef p, std::string_view key) {
  std::vector<std::optional<Value>> out;
  out.reserve(p.nodes().size());
  PropKeyId id = g.FindPropKey(key);
  for (NodeId n : p.nodes()) {
    const Value* v = g.NodeProperty(n, id);
    out.push_back(v == nullptr ? std::nullopt : std::optional<Value>(*v));
  }
  return out;
}

std::vector<std::optional<Value>> CollectEdgeProperty(
    const PropertyGraph& g, PathRef p, std::string_view key) {
  std::vector<std::optional<Value>> out;
  out.reserve(p.edges().size());
  PropKeyId id = g.FindPropKey(key);
  for (EdgeId e : p.edges()) {
    const Value* v = g.EdgeProperty(e, id);
    out.push_back(v == nullptr ? std::nullopt : std::optional<Value>(*v));
  }
  return out;
}

std::vector<std::string> DistinctNodeLabels(const PropertyGraph& g,
                                            PathRef p) {
  std::vector<std::string> out;
  std::unordered_set<LabelId> seen;
  for (NodeId n : p.nodes()) {
    LabelId l = g.NodeLabelId(n);
    if (l == kNoLabel || !seen.insert(l).second) continue;
    out.emplace_back(g.LabelName(l));
  }
  return out;
}

std::optional<double> SumEdgeProperty(const PropertyGraph& g, PathRef p,
                                      std::string_view key) {
  PropKeyId id = g.FindPropKey(key);
  bool any = false;
  double sum = 0;
  for (EdgeId e : p.edges()) {
    const Value* v = g.EdgeProperty(e, id);
    if (v == nullptr || !v->is_numeric()) continue;
    sum += v->AsNumeric();
    any = true;
  }
  if (!any) return std::nullopt;
  return sum;
}

}  // namespace pathalg

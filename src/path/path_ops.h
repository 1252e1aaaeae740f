#ifndef PATHALG_PATH_PATH_OPS_H_
#define PATHALG_PATH_PATH_OPS_H_

/// \file path_ops.h
/// The graph-aware path operators of §3.1 — Label(o) and Prop(o, pr) need λ
/// and ν, hence take the graph — plus the two atom producers Nodes(G) and
/// Edges(G) (§2.2: paths of length zero and one, the leaves of every
/// evaluation tree).

#include <optional>
#include <string_view>

#include "path/path.h"
#include "path/path_set.h"

namespace pathalg {

/// Nodes(G): all paths of length zero.
PathSet NodesOf(const PropertyGraph& g);

/// Edges(G): all paths of length one.
PathSet EdgesOf(const PropertyGraph& g);

/// σ_{label(edge(1))=label}(Edges(G)) straight off the label-partitioned
/// CSR slice: the length-one paths of every edge carrying `label`, without
/// materializing the full edge scan. Empty for kNoLabel / unknown labels.
PathSet EdgesWithLabelOf(const PropertyGraph& g, LabelId label);

/// Label(Node(p, i)); empty when i is out of range or the node unlabelled.
std::string_view LabelOfNodeAt(const PropertyGraph& g, PathRef p,
                               size_t i);

/// Label(Edge(p, j)); empty when j is out of range or the edge unlabelled.
std::string_view LabelOfEdgeAt(const PropertyGraph& g, PathRef p,
                               size_t j);

/// Prop(Node(p, i), key); nullptr when absent.
const Value* PropOfNodeAt(const PropertyGraph& g, PathRef p, size_t i,
                          std::string_view key);

/// Prop(Edge(p, j), key); nullptr when absent.
const Value* PropOfEdgeAt(const PropertyGraph& g, PathRef p, size_t j,
                          std::string_view key);

/// λ(p): the concatenation of the edge labels along p (§2.2). Unlabelled
/// edges contribute nothing. Labels are separated by nothing, exactly as the
/// paper's word-of-a-path definition.
std::string PathWord(const PropertyGraph& g, PathRef p);

}  // namespace pathalg

#endif  // PATHALG_PATH_PATH_OPS_H_

#ifndef PATHALG_PATH_PATH_FUNCTIONS_H_
#define PATHALG_PATH_PATH_FUNCTIONS_H_

/// \file path_functions.h
/// Group variables (§2.3): GQL collects the nodes or edges along a path
/// into lists. The paper notes that "incorporating them into our framework
/// is rather straightforward" — these functions are that incorporation:
/// per-path list extraction and property collection, usable as a
/// post-processing step over any PathSet.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "path/path.h"
#include "path/path_set.h"

namespace pathalg {

/// The nodes along p, in order — GQL's `nodes(p)` group variable.
std::vector<NodeId> NodesAlong(PathRef p);

/// The edges along p, in order — GQL's `edges(p)`.
std::vector<EdgeId> EdgesAlong(PathRef p);

/// The value of property `key` for every node along p, in order; absent
/// properties yield nullopt entries (GQL's list comprehension over a group
/// variable).
std::vector<std::optional<Value>> CollectNodeProperty(
    const PropertyGraph& g, PathRef p, std::string_view key);

/// Same for the edges along p.
std::vector<std::optional<Value>> CollectEdgeProperty(
    const PropertyGraph& g, PathRef p, std::string_view key);

/// The distinct node labels along p, in first-occurrence order.
std::vector<std::string> DistinctNodeLabels(const PropertyGraph& g,
                                            PathRef p);

/// Numeric aggregate over an edge property along p (e.g. total cost of a
/// route). Missing or non-numeric values are skipped; nullopt when no edge
/// carries the property.
std::optional<double> SumEdgeProperty(const PropertyGraph& g, PathRef p,
                                      std::string_view key);

}  // namespace pathalg

#endif  // PATHALG_PATH_PATH_FUNCTIONS_H_

#include "plan/cost.h"

#include <algorithm>
#include <string>

namespace pathalg {

GraphStats GraphStats::Collect(const PropertyGraph& g) {
  GraphStats s;
  s.num_nodes = g.num_nodes();
  s.num_edges = g.num_edges();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::string_view label = g.EdgeLabel(e);
    if (!label.empty()) s.edge_label_counts[std::string(label)]++;
  }
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    std::string_view label = g.NodeLabel(n);
    if (!label.empty()) s.node_label_counts[std::string(label)]++;
  }
  return s;
}

namespace {

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

double SimpleSelectivity(const Condition& c, const GraphStats& stats) {
  double nodes = std::max<double>(1, stats.num_nodes);
  double edges = std::max<double>(1, stats.num_edges);
  switch (c.access()) {
    case AccessKind::kEdgeLabel: {
      if (c.op() == CompareOp::kEq && c.constant().is_string()) {
        auto it = stats.edge_label_counts.find(c.constant().AsString());
        double count = it == stats.edge_label_counts.end()
                           ? 0.0
                           : static_cast<double>(it->second);
        return Clamp01(count / edges);
      }
      return 0.5;
    }
    case AccessKind::kNodeLabel:
    case AccessKind::kFirstLabel:
    case AccessKind::kLastLabel: {
      if (c.op() == CompareOp::kEq && c.constant().is_string()) {
        auto it = stats.node_label_counts.find(c.constant().AsString());
        double count = it == stats.node_label_counts.end()
                           ? 0.0
                           : static_cast<double>(it->second);
        return Clamp01(count / nodes);
      }
      return 0.5;
    }
    case AccessKind::kFirstProp:
    case AccessKind::kLastProp:
    case AccessKind::kNodeProp:
      // Point lookup on a node property: assume it identifies ~one node.
      return c.op() == CompareOp::kEq ? Clamp01(1.0 / nodes) : 0.3;
    case AccessKind::kEdgeProp:
      return c.op() == CompareOp::kEq ? Clamp01(1.0 / edges) : 0.3;
    case AccessKind::kLen:
      // Equality on one length out of many; inequalities keep more.
      return c.op() == CompareOp::kEq ? 0.2 : 0.5;
  }
  return 0.5;
}

}  // namespace

double EstimateSelectivity(const Condition& c, const GraphStats& stats) {
  switch (c.kind()) {
    case Condition::Kind::kSimple:
      return SimpleSelectivity(c, stats);
    case Condition::Kind::kAnd:
      return Clamp01(EstimateSelectivity(*c.left(), stats) *
                     EstimateSelectivity(*c.right(), stats));
    case Condition::Kind::kOr: {
      double l = EstimateSelectivity(*c.left(), stats);
      double r = EstimateSelectivity(*c.right(), stats);
      return Clamp01(l + r - l * r);
    }
    case Condition::Kind::kNot:
      return Clamp01(1.0 - EstimateSelectivity(*c.left(), stats));
  }
  return 0.5;
}

CostEstimate EstimateCost(const PlanPtr& plan, const GraphStats& stats) {
  if (plan == nullptr) return {0, 0};
  double nodes = std::max<double>(1, stats.num_nodes);
  // Recursion blowup cap: how many times the base a ϕ may amplify. The
  // honest answer is "unbounded"; for ranking purposes a fixed factor
  // penalizes ϕ-heavy plans without drowning every other signal.
  constexpr double kPhiBlowup = 16.0;

  switch (plan->kind()) {
    case PlanKind::kNodesScan:
      return {nodes, nodes};
    case PlanKind::kEdgesScan: {
      double edges = std::max<double>(1, stats.num_edges);
      return {edges, edges};
    }
    case PlanKind::kSelect: {
      CostEstimate c = EstimateCost(plan->child(), stats);
      double out =
          c.cardinality * EstimateSelectivity(*plan->condition(), stats);
      return {out, c.cost + c.cardinality};
    }
    case PlanKind::kJoin: {
      CostEstimate l = EstimateCost(plan->child(0), stats);
      CostEstimate r = EstimateCost(plan->child(1), stats);
      // Uniform-endpoint assumption: a pair joins with probability 1/N.
      double out = l.cardinality * r.cardinality / nodes;
      return {out, l.cost + r.cost + l.cardinality + r.cardinality + out};
    }
    case PlanKind::kUnion: {
      CostEstimate l = EstimateCost(plan->child(0), stats);
      CostEstimate r = EstimateCost(plan->child(1), stats);
      return {l.cardinality + r.cardinality,
              l.cost + r.cost + l.cardinality + r.cardinality};
    }
    case PlanKind::kIntersect: {
      CostEstimate l = EstimateCost(plan->child(0), stats);
      CostEstimate r = EstimateCost(plan->child(1), stats);
      return {0.5 * std::min(l.cardinality, r.cardinality),
              l.cost + r.cost + l.cardinality + r.cardinality};
    }
    case PlanKind::kDifference: {
      CostEstimate l = EstimateCost(plan->child(0), stats);
      CostEstimate r = EstimateCost(plan->child(1), stats);
      return {0.5 * l.cardinality,
              l.cost + r.cost + l.cardinality + r.cardinality};
    }
    case PlanKind::kRecursive: {
      CostEstimate c = EstimateCost(plan->child(), stats);
      double blowup =
          plan->semantics() == PathSemantics::kShortest ? 4.0 : kPhiBlowup;
      // A source keeps the share of paths σ_source would keep, and the
      // engines only build that share.
      const ConditionPtr& source = plan->closure().source;
      double keep =
          source == nullptr ? 1.0 : EstimateSelectivity(*source, stats);
      double out = c.cardinality * blowup * keep;
      return {out, c.cost + out};
    }
    case PlanKind::kRestrict: {
      CostEstimate c = EstimateCost(plan->child(), stats);
      double keep =
          plan->semantics() == PathSemantics::kWalk ? 1.0 : 0.6;
      return {c.cardinality * keep, c.cost + c.cardinality};
    }
    case PlanKind::kGroupBy:
    case PlanKind::kOrderBy: {
      CostEstimate c = EstimateCost(plan->child(), stats);
      return {c.cardinality, c.cost + c.cardinality};
    }
    case PlanKind::kProject: {
      CostEstimate c = EstimateCost(plan->child(), stats);
      const ProjectionSpec& spec = plan->projection();
      double keep = 1.0;
      if (spec.partitions.has_value()) keep *= 0.5;
      if (spec.groups.has_value()) keep *= 0.5;
      if (spec.paths.has_value()) keep *= 0.3;
      return {c.cardinality * keep, c.cost + c.cardinality};
    }
  }
  return {1, 1};
}

}  // namespace pathalg

#include "plan/plan.h"

#include <algorithm>

namespace pathalg {

const char* PlanKindToString(PlanKind k) {
  switch (k) {
    case PlanKind::kNodesScan:
      return "Nodes(G)";
    case PlanKind::kEdgesScan:
      return "Edges(G)";
    case PlanKind::kSelect:
      return "Select";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kUnion:
      return "Union";
    case PlanKind::kIntersect:
      return "Intersect";
    case PlanKind::kDifference:
      return "Difference";
    case PlanKind::kRecursive:
      return "Recursive";
    case PlanKind::kRestrict:
      return "Restrict";
    case PlanKind::kGroupBy:
      return "GroupBy";
    case PlanKind::kOrderBy:
      return "OrderBy";
    case PlanKind::kProject:
      return "Project";
  }
  return "?";
}

std::string ClosureSpec::ToString() const {
  std::string out = PathSemanticsToString(semantics);
  if (source != nullptr) out += "; " + source->ToString();
  return out;
}

// The factory plumbing uses a tiny builder struct to keep PlanNode
// immutable from the outside while writing its fields exactly once here.
struct PlanBuilderAccess {
  static std::shared_ptr<PlanNode> Make(PlanKind kind,
                                        std::vector<PlanPtr> children) {
    auto node = std::shared_ptr<PlanNode>(new PlanNode());
    node->kind_ = kind;
    node->children_ = std::move(children);
    return node;
  }
  static void SetCondition(PlanNode& n, ConditionPtr c) {
    n.condition_ = std::move(c);
  }
  static void SetClosure(PlanNode& n, ClosureSpec c) {
    n.closure_ = std::move(c);
  }
  static void SetGroupKey(PlanNode& n, GroupKey k) { n.group_key_ = k; }
  static void SetOrderKey(PlanNode& n, OrderKey k) { n.order_key_ = k; }
  static void SetProjection(PlanNode& n, ProjectionSpec p) {
    n.projection_ = std::move(p);
  }
};

PlanPtr PlanNode::NodesScan() {
  return PlanBuilderAccess::Make(PlanKind::kNodesScan, {});
}

PlanPtr PlanNode::EdgesScan() {
  return PlanBuilderAccess::Make(PlanKind::kEdgesScan, {});
}

PlanPtr PlanNode::Select(ConditionPtr condition, PlanPtr input) {
  auto n = PlanBuilderAccess::Make(PlanKind::kSelect, {std::move(input)});
  PlanBuilderAccess::SetCondition(*n, std::move(condition));
  return n;
}

PlanPtr PlanNode::Join(PlanPtr left, PlanPtr right) {
  return PlanBuilderAccess::Make(PlanKind::kJoin,
                                 {std::move(left), std::move(right)});
}

PlanPtr PlanNode::Union(PlanPtr left, PlanPtr right) {
  return PlanBuilderAccess::Make(PlanKind::kUnion,
                                 {std::move(left), std::move(right)});
}

PlanPtr PlanNode::Intersect(PlanPtr left, PlanPtr right) {
  return PlanBuilderAccess::Make(PlanKind::kIntersect,
                                 {std::move(left), std::move(right)});
}

PlanPtr PlanNode::Difference(PlanPtr left, PlanPtr right) {
  return PlanBuilderAccess::Make(PlanKind::kDifference,
                                 {std::move(left), std::move(right)});
}

PlanPtr PlanNode::Recursive(ClosureSpec closure, PlanPtr input) {
  auto n = PlanBuilderAccess::Make(PlanKind::kRecursive, {std::move(input)});
  PlanBuilderAccess::SetClosure(*n, std::move(closure));
  return n;
}

PlanPtr PlanNode::Restrict(PathSemantics semantics, PlanPtr input) {
  auto n = PlanBuilderAccess::Make(PlanKind::kRestrict, {std::move(input)});
  PlanBuilderAccess::SetClosure(*n, semantics);
  return n;
}

PlanPtr PlanNode::GroupBy(GroupKey key, PlanPtr input) {
  auto n = PlanBuilderAccess::Make(PlanKind::kGroupBy, {std::move(input)});
  PlanBuilderAccess::SetGroupKey(*n, key);
  return n;
}

PlanPtr PlanNode::OrderBy(OrderKey key, PlanPtr input) {
  auto n = PlanBuilderAccess::Make(PlanKind::kOrderBy, {std::move(input)});
  PlanBuilderAccess::SetOrderKey(*n, key);
  return n;
}

PlanPtr PlanNode::Project(ProjectionSpec spec, PlanPtr input) {
  auto n = PlanBuilderAccess::Make(PlanKind::kProject, {std::move(input)});
  PlanBuilderAccess::SetProjection(*n, std::move(spec));
  return n;
}

Status PlanNode::Validate() const {
  size_t want_arity;
  switch (kind_) {
    case PlanKind::kNodesScan:
    case PlanKind::kEdgesScan:
      want_arity = 0;
      break;
    case PlanKind::kSelect:
    case PlanKind::kRecursive:
    case PlanKind::kRestrict:
    case PlanKind::kGroupBy:
    case PlanKind::kOrderBy:
    case PlanKind::kProject:
      want_arity = 1;
      break;
    default:
      want_arity = 2;
  }
  if (children_.size() != want_arity) {
    return Status::InvalidArgument(std::string(PlanKindToString(kind_)) +
                                   " expects " +
                                   std::to_string(want_arity) + " inputs");
  }
  for (const PlanPtr& c : children_) {
    if (c == nullptr) {
      return Status::InvalidArgument("null child plan");
    }
    PATHALG_RETURN_NOT_OK(c->Validate());
  }
  if (kind_ == PlanKind::kSelect && condition_ == nullptr) {
    return Status::InvalidArgument("Select requires a condition");
  }
  // Typing: γ and π consume paths/space respectively; τ consumes a space.
  switch (kind_) {
    case PlanKind::kOrderBy:
      if (!children_[0]->ProducesSpace()) {
        return Status::InvalidArgument(
            "OrderBy input must be a solution space (GroupBy/OrderBy)");
      }
      break;
    case PlanKind::kProject:
      if (!children_[0]->ProducesSpace()) {
        return Status::InvalidArgument(
            "Project input must be a solution space (GroupBy/OrderBy)");
      }
      break;
    default:
      for (const PlanPtr& c : children_) {
        if (c->ProducesSpace()) {
          return Status::InvalidArgument(
              std::string(PlanKindToString(kind_)) +
              " input must be a set of paths, not a solution space");
        }
      }
  }
  return Status::OK();
}

LengthBounds PlanNode::Bounds() const {
  auto add = [](std::optional<size_t> a,
                std::optional<size_t> b) -> std::optional<size_t> {
    if (!a.has_value() || !b.has_value()) return std::nullopt;
    return *a + *b;
  };
  switch (kind_) {
    case PlanKind::kNodesScan:
      return {0, 0};
    case PlanKind::kEdgesScan:
      return {1, 1};
    case PlanKind::kSelect:
    case PlanKind::kGroupBy:
    case PlanKind::kOrderBy:
    case PlanKind::kProject:
    case PlanKind::kDifference:
      return children_[0]->Bounds();
    case PlanKind::kJoin: {
      LengthBounds l = children_[0]->Bounds();
      LengthBounds r = children_[1]->Bounds();
      return {l.min + r.min, add(l.max, r.max)};
    }
    case PlanKind::kUnion: {
      LengthBounds l = children_[0]->Bounds();
      LengthBounds r = children_[1]->Bounds();
      std::optional<size_t> max;
      if (l.max.has_value() && r.max.has_value()) {
        max = std::max(*l.max, *r.max);
      }
      return {std::min(l.min, r.min), max};
    }
    case PlanKind::kIntersect: {
      LengthBounds l = children_[0]->Bounds();
      LengthBounds r = children_[1]->Bounds();
      std::optional<size_t> max = l.max;
      if (r.max.has_value() && (!max.has_value() || *r.max < *max)) {
        max = r.max;
      }
      return {std::max(l.min, r.min), max};
    }
    case PlanKind::kRestrict:
      return children_[0]->Bounds();
    case PlanKind::kRecursive: {
      LengthBounds c = children_[0]->Bounds();
      // ϕ includes the base (min unchanged); compositions are unbounded
      // unless the base can only produce zero-length paths.
      if (c.max.has_value() && *c.max == 0) return {c.min, c.max};
      return {c.min, std::nullopt};
    }
  }
  return {0, std::nullopt};
}

bool PlanNode::Equals(const PlanNode& other) const {
  if (kind_ != other.kind_) return false;
  if (children_.size() != other.children_.size()) return false;
  switch (kind_) {
    case PlanKind::kSelect:
      if (!condition_->Equals(*other.condition_)) return false;
      break;
    case PlanKind::kRecursive:
    case PlanKind::kRestrict: {
      if (semantics() != other.semantics()) return false;
      const ConditionPtr& a = closure_.source;
      const ConditionPtr& b = other.closure_.source;
      if ((a == nullptr) != (b == nullptr)) return false;
      if (a != nullptr && !a->Equals(*b)) return false;
      break;
    }
    case PlanKind::kGroupBy:
      if (group_key_ != other.group_key_) return false;
      break;
    case PlanKind::kOrderBy:
      if (order_key_ != other.order_key_) return false;
      break;
    case PlanKind::kProject:
      if (projection_.partitions != other.projection_.partitions ||
          projection_.groups != other.projection_.groups ||
          projection_.paths != other.projection_.paths) {
        return false;
      }
      break;
    default:
      break;
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

std::string PlanNode::ToAlgebraString() const {
  switch (kind_) {
    case PlanKind::kNodesScan:
      return "Nodes(G)";
    case PlanKind::kEdgesScan:
      return "Edges(G)";
    case PlanKind::kSelect:
      return "σ[" + condition_->ToString() + "](" +
             children_[0]->ToAlgebraString() + ")";
    case PlanKind::kJoin:
      return "(" + children_[0]->ToAlgebraString() + " ⋈ " +
             children_[1]->ToAlgebraString() + ")";
    case PlanKind::kUnion:
      return "(" + children_[0]->ToAlgebraString() + " ∪ " +
             children_[1]->ToAlgebraString() + ")";
    case PlanKind::kIntersect:
      return "(" + children_[0]->ToAlgebraString() + " ∩ " +
             children_[1]->ToAlgebraString() + ")";
    case PlanKind::kDifference:
      return "(" + children_[0]->ToAlgebraString() + " − " +
             children_[1]->ToAlgebraString() + ")";
    case PlanKind::kRecursive:
      return "ϕ[" + closure_.ToString() + "](" +
             children_[0]->ToAlgebraString() + ")";
    case PlanKind::kRestrict:
      return std::string("ρ[") + PathSemanticsToString(semantics()) + "](" +
             children_[0]->ToAlgebraString() + ")";
    case PlanKind::kGroupBy:
      return std::string("γ[") + GroupKeyToString(group_key_) + "](" +
             children_[0]->ToAlgebraString() + ")";
    case PlanKind::kOrderBy:
      return std::string("τ[") + OrderKeyToString(order_key_) + "](" +
             children_[0]->ToAlgebraString() + ")";
    case PlanKind::kProject:
      return "π" + projection_.ToString() + "(" +
             children_[0]->ToAlgebraString() + ")";
  }
  return "?";
}

namespace {
void AppendTree(const PlanNode& node, size_t depth, std::string& out) {
  out.append(depth * 2, ' ');
  switch (node.kind()) {
    case PlanKind::kNodesScan:
      out += "Nodes(G)";
      break;
    case PlanKind::kEdgesScan:
      out += "Edges(G)";
      break;
    case PlanKind::kSelect:
      out += "Select (" + node.condition()->ToString() + ")";
      break;
    case PlanKind::kRecursive:
      out += "Recursive (" + node.closure().ToString() + ")";
      break;
    case PlanKind::kRestrict:
      out += std::string("Restrict (") +
             PathSemanticsToString(node.semantics()) + ")";
      break;
    case PlanKind::kGroupBy: {
      std::string key = GroupKeyToString(node.group_key());
      out += "GroupBy (" + (key.empty() ? std::string("-") : key) + ")";
      break;
    }
    case PlanKind::kOrderBy:
      out += std::string("OrderBy (") + OrderKeyToString(node.order_key()) +
             ")";
      break;
    case PlanKind::kProject:
      out += "Project " + node.projection().ToString();
      break;
    default:
      out += PlanKindToString(node.kind());
  }
  out += "\n";
  for (const PlanPtr& c : node.children()) {
    AppendTree(*c, depth + 1, out);
  }
}
}  // namespace

std::string PlanNode::ToTreeString() const {
  std::string out;
  AppendTree(*this, 0, out);
  return out;
}

}  // namespace pathalg

#include "algebra/condition.h"

#include <optional>

#include "path/path_ops.h"

namespace pathalg {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kContains:
      return "CONTAINS";
    case CompareOp::kStartsWith:
      return "STARTS WITH";
    case CompareOp::kExists:
      return "EXISTS";
  }
  return "?";
}

namespace {

bool Compare(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kContains:
      return lhs.is_string() && rhs.is_string() &&
             lhs.AsString().find(rhs.AsString()) != std::string::npos;
    case CompareOp::kStartsWith:
      return lhs.is_string() && rhs.is_string() &&
             lhs.AsString().rfind(rhs.AsString(), 0) == 0;
    case CompareOp::kExists:
      return true;  // the access succeeded; Evaluate handles the miss case
  }
  return false;
}

/// Resolves the access of a simple condition; nullopt when the accessed
/// label/property/position does not exist.
std::optional<Value> Access(const Condition& c, const PropertyGraph& g,
                            PathRef p) {
  switch (c.access()) {
    case AccessKind::kNodeLabel: {
      std::string_view l = LabelOfNodeAt(g, p, c.position());
      if (l.empty()) return std::nullopt;
      return Value(std::string(l));
    }
    case AccessKind::kEdgeLabel: {
      std::string_view l = LabelOfEdgeAt(g, p, c.position());
      if (l.empty()) return std::nullopt;
      return Value(std::string(l));
    }
    case AccessKind::kFirstLabel: {
      std::string_view l = LabelOfNodeAt(g, p, 1);
      if (l.empty()) return std::nullopt;
      return Value(std::string(l));
    }
    case AccessKind::kLastLabel: {
      std::string_view l = LabelOfNodeAt(g, p, p.Len() + 1);
      if (l.empty()) return std::nullopt;
      return Value(std::string(l));
    }
    case AccessKind::kNodeProp: {
      const Value* v = PropOfNodeAt(g, p, c.position(), c.property());
      if (v == nullptr) return std::nullopt;
      return *v;
    }
    case AccessKind::kEdgeProp: {
      const Value* v = PropOfEdgeAt(g, p, c.position(), c.property());
      if (v == nullptr) return std::nullopt;
      return *v;
    }
    case AccessKind::kFirstProp: {
      const Value* v = PropOfNodeAt(g, p, 1, c.property());
      if (v == nullptr) return std::nullopt;
      return *v;
    }
    case AccessKind::kLastProp: {
      const Value* v = PropOfNodeAt(g, p, p.Len() + 1, c.property());
      if (v == nullptr) return std::nullopt;
      return *v;
    }
    case AccessKind::kLen:
      return Value(static_cast<int64_t>(p.Len()));
  }
  return std::nullopt;
}

std::string AccessToString(const Condition& c) {
  switch (c.access()) {
    case AccessKind::kNodeLabel:
      return "label(node(" + std::to_string(c.position()) + "))";
    case AccessKind::kEdgeLabel:
      return "label(edge(" + std::to_string(c.position()) + "))";
    case AccessKind::kFirstLabel:
      return "label(first)";
    case AccessKind::kLastLabel:
      return "label(last)";
    case AccessKind::kNodeProp:
      return "node(" + std::to_string(c.position()) + ")." + c.property();
    case AccessKind::kEdgeProp:
      return "edge(" + std::to_string(c.position()) + ")." + c.property();
    case AccessKind::kFirstProp:
      return "first." + c.property();
    case AccessKind::kLastProp:
      return "last." + c.property();
    case AccessKind::kLen:
      return "len()";
  }
  return "?";
}

}  // namespace

bool Condition::Evaluate(const PropertyGraph& g, PathRef p) const {
  switch (kind_) {
    case Kind::kSimple: {
      std::optional<Value> lhs = Access(*this, g, p);
      if (!lhs.has_value()) return false;
      return Compare(*lhs, op_, constant_);
    }
    case Kind::kAnd:
      return left_->Evaluate(g, p) && right_->Evaluate(g, p);
    case Kind::kOr:
      return left_->Evaluate(g, p) || right_->Evaluate(g, p);
    case Kind::kNot:
      return !left_->Evaluate(g, p);
  }
  return false;
}

std::string Condition::ToString() const {
  switch (kind_) {
    case Kind::kSimple:
      if (op_ == CompareOp::kExists) {
        return AccessToString(*this) + " EXISTS";
      }
      return AccessToString(*this) + " " + CompareOpToString(op_) + " " +
             constant_.ToString();
    case Kind::kAnd:
      return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
    case Kind::kOr:
      return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
    case Kind::kNot:
      return "NOT (" + left_->ToString() + ")";
  }
  return "?";
}

bool Condition::Equals(const Condition& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kSimple:
      return access_ == other.access_ && position_ == other.position_ &&
             property_ == other.property_ && op_ == other.op_ &&
             constant_ == other.constant_;
    case Kind::kAnd:
    case Kind::kOr:
      return left_->Equals(*other.left_) && right_->Equals(*other.right_);
    case Kind::kNot:
      return left_->Equals(*other.left_);
  }
  return false;
}

ConditionPtr Condition::MakeSimple(AccessKind access, size_t position,
                                   std::string property, CompareOp op,
                                   Value constant) {
  auto c = std::shared_ptr<Condition>(new Condition());
  c->kind_ = Kind::kSimple;
  c->access_ = access;
  c->position_ = position;
  c->property_ = std::move(property);
  c->op_ = op;
  c->constant_ = std::move(constant);
  return c;
}

ConditionPtr Condition::And(ConditionPtr l, ConditionPtr r) {
  auto c = std::shared_ptr<Condition>(new Condition());
  c->kind_ = Kind::kAnd;
  c->left_ = std::move(l);
  c->right_ = std::move(r);
  return c;
}

ConditionPtr Condition::Or(ConditionPtr l, ConditionPtr r) {
  auto c = std::shared_ptr<Condition>(new Condition());
  c->kind_ = Kind::kOr;
  c->left_ = std::move(l);
  c->right_ = std::move(r);
  return c;
}

ConditionPtr Condition::Not(ConditionPtr inner) {
  auto c = std::shared_ptr<Condition>(new Condition());
  c->kind_ = Kind::kNot;
  c->left_ = std::move(inner);
  return c;
}

ConditionPtr NodeLabelEq(size_t i, std::string label) {
  return Condition::MakeSimple(AccessKind::kNodeLabel, i, {}, CompareOp::kEq,
                               Value(std::move(label)));
}
ConditionPtr EdgeLabelEq(size_t i, std::string label) {
  return Condition::MakeSimple(AccessKind::kEdgeLabel, i, {}, CompareOp::kEq,
                               Value(std::move(label)));
}
ConditionPtr FirstLabelEq(std::string label) {
  return Condition::MakeSimple(AccessKind::kFirstLabel, 0, {}, CompareOp::kEq,
                               Value(std::move(label)));
}
ConditionPtr LastLabelEq(std::string label) {
  return Condition::MakeSimple(AccessKind::kLastLabel, 0, {}, CompareOp::kEq,
                               Value(std::move(label)));
}
ConditionPtr FirstPropEq(std::string property, Value v) {
  return Condition::MakeSimple(AccessKind::kFirstProp, 0, std::move(property),
                               CompareOp::kEq, std::move(v));
}
ConditionPtr LastPropEq(std::string property, Value v) {
  return Condition::MakeSimple(AccessKind::kLastProp, 0, std::move(property),
                               CompareOp::kEq, std::move(v));
}
ConditionPtr NodePropEq(size_t i, std::string property, Value v) {
  return Condition::MakeSimple(AccessKind::kNodeProp, i, std::move(property),
                               CompareOp::kEq, std::move(v));
}
ConditionPtr EdgePropEq(size_t i, std::string property, Value v) {
  return Condition::MakeSimple(AccessKind::kEdgeProp, i, std::move(property),
                               CompareOp::kEq, std::move(v));
}
ConditionPtr LenCompare(CompareOp op, int64_t len) {
  return Condition::MakeSimple(AccessKind::kLen, 0, {}, op, Value(len));
}
ConditionPtr LenEq(int64_t len) { return LenCompare(CompareOp::kEq, len); }
ConditionPtr FirstPropContains(std::string property, std::string needle) {
  return Condition::MakeSimple(AccessKind::kFirstProp, 0,
                               std::move(property), CompareOp::kContains,
                               Value(std::move(needle)));
}
ConditionPtr FirstPropExists(std::string property) {
  return Condition::MakeSimple(AccessKind::kFirstProp, 0,
                               std::move(property), CompareOp::kExists,
                               Value());
}
ConditionPtr LastPropExists(std::string property) {
  return Condition::MakeSimple(AccessKind::kLastProp, 0,
                               std::move(property), CompareOp::kExists,
                               Value());
}

namespace {

template <typename LeafPred>
bool AllLeaves(const Condition& c, const LeafPred& pred) {
  switch (c.kind()) {
    case Condition::Kind::kSimple:
      return pred(c);
    case Condition::Kind::kAnd:
    case Condition::Kind::kOr:
      return AllLeaves(*c.left(), pred) && AllLeaves(*c.right(), pred);
    case Condition::Kind::kNot:
      return AllLeaves(*c.left(), pred);
  }
  return false;
}

template <typename LeafFn>
size_t MaxOverLeaves(const Condition& c, const LeafFn& fn) {
  switch (c.kind()) {
    case Condition::Kind::kSimple:
      return fn(c);
    case Condition::Kind::kAnd:
    case Condition::Kind::kOr:
      return std::max(MaxOverLeaves(*c.left(), fn),
                      MaxOverLeaves(*c.right(), fn));
    case Condition::Kind::kNot:
      return MaxOverLeaves(*c.left(), fn);
  }
  return 0;
}

}  // namespace

bool RefersOnlyToFirstNode(const Condition& c) {
  return AllLeaves(c, [](const Condition& leaf) {
    switch (leaf.access()) {
      case AccessKind::kFirstLabel:
      case AccessKind::kFirstProp:
        return true;
      case AccessKind::kNodeLabel:
      case AccessKind::kNodeProp:
        return leaf.position() == 1;
      default:
        return false;
    }
  });
}

bool RefersOnlyToLastNode(const Condition& c) {
  return AllLeaves(c, [](const Condition& leaf) {
    return leaf.access() == AccessKind::kLastLabel ||
           leaf.access() == AccessKind::kLastProp;
  });
}

bool UsesLen(const Condition& c) {
  return !AllLeaves(c, [](const Condition& leaf) {
    return leaf.access() != AccessKind::kLen;
  });
}

size_t MaxNodePosition(const Condition& c, size_t fallback) {
  return MaxOverLeaves(c, [fallback](const Condition& leaf) -> size_t {
    switch (leaf.access()) {
      case AccessKind::kNodeLabel:
      case AccessKind::kNodeProp:
        return leaf.position();
      case AccessKind::kFirstLabel:
      case AccessKind::kFirstProp:
        return 1;
      case AccessKind::kLastLabel:
      case AccessKind::kLastProp:
      case AccessKind::kLen:
        return fallback;
      default:
        return 0;
    }
  });
}

size_t MaxEdgePosition(const Condition& c, size_t fallback) {
  return MaxOverLeaves(c, [fallback](const Condition& leaf) -> size_t {
    switch (leaf.access()) {
      case AccessKind::kEdgeLabel:
      case AccessKind::kEdgeProp:
        return leaf.position();
      case AccessKind::kLastLabel:
      case AccessKind::kLastProp:
      case AccessKind::kLen:
        return fallback;
      default:
        return 0;
    }
  });
}

}  // namespace pathalg

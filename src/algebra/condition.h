#ifndef PATHALG_ALGEBRA_CONDITION_H_
#define PATHALG_ALGEBRA_CONDITION_H_

/// \file condition.h
/// Selection conditions (§3.1). A simple condition compares one path access
/// — `label(node(i))`, `label(edge(i))`, `label(first)`, `label(last)`,
/// `node(i).pr`, `edge(i).pr`, `first.pr`, `last.pr`, or `len()` — against a
/// constant; complex conditions combine them with ∧, ∨, ¬. Footnote 1 of the
/// paper extends the comparators to ≠ < > ≤ ≥, which we implement.
///
/// Missing-data semantics: a comparison whose accessed label/property does
/// not exist (unlabelled object, absent property, out-of-range position)
/// evaluates to False for every comparator, including ≠. This collapses the
/// three-valued logic of SQL into the two-valued logic the paper uses.

#include <memory>
#include <string>

#include "graph/property_graph.h"
#include "path/path.h"

namespace pathalg {

/// What a simple condition reads from the path.
enum class AccessKind {
  kNodeLabel,   // label(node(i))
  kEdgeLabel,   // label(edge(i))
  kFirstLabel,  // label(first)
  kLastLabel,   // label(last)
  kNodeProp,    // node(i).pr
  kEdgeProp,    // edge(i).pr
  kFirstProp,   // first.pr
  kLastProp,    // last.pr
  kLen,         // len()
};

/// Comparators. The paper's footnote 1 allows extending = with ≠ < > ≤ ≥
/// "and other built-in functions (e.g. substr or bound)" — kContains /
/// kStartsWith are the substring family and kExists is `bound` (true iff
/// the accessed label/property exists; the constant operand is ignored).
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kContains,
  kStartsWith,
  kExists,
};

const char* CompareOpToString(CompareOp op);

/// Immutable condition tree node. Build via the factory functions below and
/// share via ConditionPtr (plans may reference the same condition twice).
class Condition;
using ConditionPtr = std::shared_ptr<const Condition>;

class Condition {
 public:
  enum class Kind { kSimple, kAnd, kOr, kNot };

  Kind kind() const { return kind_; }

  // --- Simple condition fields (valid when kind == kSimple) ---
  AccessKind access() const { return access_; }
  /// 1-based position for kNodeLabel/kEdgeLabel/kNodeProp/kEdgeProp.
  size_t position() const { return position_; }
  /// Property name for the *Prop accesses.
  const std::string& property() const { return property_; }
  CompareOp op() const { return op_; }
  const Value& constant() const { return constant_; }

  // --- Complex condition fields ---
  const ConditionPtr& left() const { return left_; }
  const ConditionPtr& right() const { return right_; }

  /// ev(c, p) of §3.1: evaluates this condition over `p` in `g`.
  bool Evaluate(const PropertyGraph& g, PathRef p) const;

  /// Renders in the paper's syntax, e.g. `label(edge(1)) = "Knows"`,
  /// `(first.name = "Moe" AND last.name = "Apu")`.
  std::string ToString() const;

  /// Structural equality (used by plan equality and optimizer tests).
  bool Equals(const Condition& other) const;

  // Factories --------------------------------------------------------------
  static ConditionPtr MakeSimple(AccessKind access, size_t position,
                                 std::string property, CompareOp op,
                                 Value constant);
  static ConditionPtr And(ConditionPtr l, ConditionPtr r);
  static ConditionPtr Or(ConditionPtr l, ConditionPtr r);
  static ConditionPtr Not(ConditionPtr c);

 private:
  Condition() = default;

  Kind kind_ = Kind::kSimple;
  AccessKind access_ = AccessKind::kLen;
  size_t position_ = 0;
  std::string property_;
  CompareOp op_ = CompareOp::kEq;
  Value constant_;
  ConditionPtr left_;
  ConditionPtr right_;
};

// Convenience factories matching the paper's most-used atoms ---------------

/// label(node(i)) = v
ConditionPtr NodeLabelEq(size_t i, std::string label);
/// label(edge(i)) = v
ConditionPtr EdgeLabelEq(size_t i, std::string label);
/// label(first) = v
ConditionPtr FirstLabelEq(std::string label);
/// label(last) = v
ConditionPtr LastLabelEq(std::string label);
/// first.pr = v
ConditionPtr FirstPropEq(std::string property, Value v);
/// last.pr = v
ConditionPtr LastPropEq(std::string property, Value v);
/// node(i).pr = v
ConditionPtr NodePropEq(size_t i, std::string property, Value v);
/// edge(i).pr = v
ConditionPtr EdgePropEq(size_t i, std::string property, Value v);
/// len() <op> i
ConditionPtr LenCompare(CompareOp op, int64_t len);
/// len() = i
ConditionPtr LenEq(int64_t len);
/// first.pr CONTAINS v (substring test; footnote 1's substr family)
ConditionPtr FirstPropContains(std::string property, std::string needle);
/// first.pr EXISTS (footnote 1's bound)
ConditionPtr FirstPropExists(std::string property);
/// last.pr EXISTS
ConditionPtr LastPropExists(std::string property);

// Optimizer analysis -------------------------------------------------------

/// True if every leaf of `c` reads only the first node (`first.*`,
/// `label(first)`, `label(node(1))`, `node(1).*`). Such conditions commute
/// with joining on the right: First(p1 ◦ p2) = First(p1).
bool RefersOnlyToFirstNode(const Condition& c);

/// True if every leaf reads only the last node.
bool RefersOnlyToLastNode(const Condition& c);

/// True if `c` mentions len() anywhere.
bool UsesLen(const Condition& c);

/// The largest 1-based node position `c` reads (label(first) reads node 1;
/// last/len accesses return `fallback` because their position is dynamic).
/// Used by the optimizer's static length-bound reasoning.
size_t MaxNodePosition(const Condition& c, size_t fallback);

/// The largest 1-based edge position `c` reads (dynamic accesses return
/// `fallback`).
size_t MaxEdgePosition(const Condition& c, size_t fallback);

}  // namespace pathalg

#endif  // PATHALG_ALGEBRA_CONDITION_H_

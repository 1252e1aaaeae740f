// Unit tests for selection conditions (§3.1): every simple access kind,
// every comparator (footnote 1), complex conditions, missing-data
// semantics, printing and the optimizer analysis helpers.

#include <gtest/gtest.h>

#include <random>

#include "algebra/condition.h"
#include "workload/figure1.h"

namespace pathalg {
namespace {

class ConditionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = MakeFigure1Graph(&ids_);
    // p = (n1, e1, n2, e2, n3): Moe -Knows-> Homer -Knows-> Lisa.
    p_ = Path({ids_.n1, ids_.n2, ids_.n3}, {ids_.e1, ids_.e2});
  }
  PropertyGraph g_;
  Figure1Ids ids_;
  Path p_;
};

TEST_F(ConditionTest, NodeLabelAt) {
  EXPECT_TRUE(NodeLabelEq(1, "Person")->Evaluate(g_, p_));
  EXPECT_FALSE(NodeLabelEq(1, "Message")->Evaluate(g_, p_));
  EXPECT_FALSE(NodeLabelEq(9, "Person")->Evaluate(g_, p_));  // out of range
}

TEST_F(ConditionTest, EdgeLabelAt) {
  EXPECT_TRUE(EdgeLabelEq(1, "Knows")->Evaluate(g_, p_));
  EXPECT_TRUE(EdgeLabelEq(2, "Knows")->Evaluate(g_, p_));
  EXPECT_FALSE(EdgeLabelEq(1, "Likes")->Evaluate(g_, p_));
  EXPECT_FALSE(EdgeLabelEq(3, "Knows")->Evaluate(g_, p_));  // out of range
}

TEST_F(ConditionTest, FirstLastLabel) {
  EXPECT_TRUE(FirstLabelEq("Person")->Evaluate(g_, p_));
  EXPECT_TRUE(LastLabelEq("Person")->Evaluate(g_, p_));
  Path msg({ids_.n1, ids_.n6}, {ids_.e8});
  EXPECT_TRUE(LastLabelEq("Message")->Evaluate(g_, msg));
  EXPECT_FALSE(LastLabelEq("Person")->Evaluate(g_, msg));
}

TEST_F(ConditionTest, FirstLastProp) {
  EXPECT_TRUE(FirstPropEq("name", Value("Moe"))->Evaluate(g_, p_));
  EXPECT_FALSE(FirstPropEq("name", Value("Apu"))->Evaluate(g_, p_));
  EXPECT_TRUE(LastPropEq("name", Value("Lisa"))->Evaluate(g_, p_));
  // Missing property: false for = and for != (documented semantics).
  EXPECT_FALSE(FirstPropEq("age", Value(30))->Evaluate(g_, p_));
  auto ne = Condition::MakeSimple(AccessKind::kFirstProp, 0, "age",
                                  CompareOp::kNe, Value(30));
  EXPECT_FALSE(ne->Evaluate(g_, p_));
}

TEST_F(ConditionTest, PositionalProps) {
  EXPECT_TRUE(NodePropEq(2, "name", Value("Homer"))->Evaluate(g_, p_));
  EXPECT_FALSE(NodePropEq(2, "name", Value("Lisa"))->Evaluate(g_, p_));
  EXPECT_FALSE(NodePropEq(5, "name", Value("Homer"))->Evaluate(g_, p_));
  EXPECT_FALSE(EdgePropEq(1, "since", Value(2020))->Evaluate(g_, p_));
}

TEST_F(ConditionTest, LenComparators) {
  EXPECT_TRUE(LenEq(2)->Evaluate(g_, p_));
  EXPECT_FALSE(LenEq(3)->Evaluate(g_, p_));
  EXPECT_TRUE(LenCompare(CompareOp::kLt, 3)->Evaluate(g_, p_));
  EXPECT_TRUE(LenCompare(CompareOp::kLe, 2)->Evaluate(g_, p_));
  EXPECT_FALSE(LenCompare(CompareOp::kGt, 2)->Evaluate(g_, p_));
  EXPECT_TRUE(LenCompare(CompareOp::kGe, 2)->Evaluate(g_, p_));
  EXPECT_TRUE(LenCompare(CompareOp::kNe, 5)->Evaluate(g_, p_));
}

TEST_F(ConditionTest, ValueComparatorsOnProperties) {
  GraphBuilder b;
  NodeId n = b.AddNode("Person", {{"age", Value(30)}});
  PropertyGraph g = b.Build();
  Path p = Path::SingleNode(n);
  auto age = [&](CompareOp op, int64_t v) {
    return Condition::MakeSimple(AccessKind::kFirstProp, 0, "age", op,
                                 Value(v))
        ->Evaluate(g, p);
  };
  EXPECT_TRUE(age(CompareOp::kEq, 30));
  EXPECT_TRUE(age(CompareOp::kNe, 31));
  EXPECT_TRUE(age(CompareOp::kLt, 31));
  EXPECT_FALSE(age(CompareOp::kLt, 30));
  EXPECT_TRUE(age(CompareOp::kLe, 30));
  EXPECT_TRUE(age(CompareOp::kGt, 29));
  EXPECT_TRUE(age(CompareOp::kGe, 30));
  EXPECT_FALSE(age(CompareOp::kGe, 31));
}

TEST_F(ConditionTest, ComplexConditions) {
  auto both = Condition::And(FirstPropEq("name", Value("Moe")),
                             LastPropEq("name", Value("Lisa")));
  EXPECT_TRUE(both->Evaluate(g_, p_));
  auto either = Condition::Or(FirstPropEq("name", Value("Apu")),
                              LastPropEq("name", Value("Lisa")));
  EXPECT_TRUE(either->Evaluate(g_, p_));
  auto neither = Condition::Or(FirstPropEq("name", Value("Apu")),
                               LastPropEq("name", Value("Apu")));
  EXPECT_FALSE(neither->Evaluate(g_, p_));
  EXPECT_TRUE(Condition::Not(neither)->Evaluate(g_, p_));
  EXPECT_FALSE(Condition::Not(both)->Evaluate(g_, p_));
}

TEST_F(ConditionTest, ToStringMatchesPaperSyntax) {
  EXPECT_EQ(EdgeLabelEq(1, "Knows")->ToString(),
            "label(edge(1)) = \"Knows\"");
  EXPECT_EQ(FirstPropEq("name", Value("Moe"))->ToString(),
            "first.name = \"Moe\"");
  EXPECT_EQ(LenEq(3)->ToString(), "len() = 3");
  EXPECT_EQ(NodeLabelEq(2, "Person")->ToString(),
            "label(node(2)) = \"Person\"");
  EXPECT_EQ(Condition::And(FirstPropEq("name", Value("Moe")),
                           LastPropEq("name", Value("Apu")))
                ->ToString(),
            "(first.name = \"Moe\" AND last.name = \"Apu\")");
  EXPECT_EQ(Condition::Not(LenEq(0))->ToString(), "NOT (len() = 0)");
  EXPECT_EQ(LenCompare(CompareOp::kGe, 2)->ToString(), "len() >= 2");
}

TEST_F(ConditionTest, StructuralEquality) {
  EXPECT_TRUE(EdgeLabelEq(1, "Knows")->Equals(*EdgeLabelEq(1, "Knows")));
  EXPECT_FALSE(EdgeLabelEq(1, "Knows")->Equals(*EdgeLabelEq(2, "Knows")));
  EXPECT_FALSE(EdgeLabelEq(1, "Knows")->Equals(*EdgeLabelEq(1, "Likes")));
  auto a = Condition::And(LenEq(1), LenEq(2));
  auto b = Condition::And(LenEq(1), LenEq(2));
  auto c = Condition::Or(LenEq(1), LenEq(2));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
}

TEST_F(ConditionTest, AnalysisFirstLast) {
  EXPECT_TRUE(RefersOnlyToFirstNode(*FirstPropEq("name", Value("Moe"))));
  EXPECT_TRUE(RefersOnlyToFirstNode(*NodeLabelEq(1, "Person")));
  EXPECT_TRUE(RefersOnlyToFirstNode(*NodePropEq(1, "name", Value("Moe"))));
  EXPECT_FALSE(RefersOnlyToFirstNode(*NodeLabelEq(2, "Person")));
  EXPECT_FALSE(RefersOnlyToFirstNode(*LastPropEq("name", Value("Apu"))));
  EXPECT_FALSE(RefersOnlyToFirstNode(*EdgeLabelEq(1, "Knows")));
  EXPECT_TRUE(RefersOnlyToFirstNode(*Condition::And(
      FirstPropEq("name", Value("Moe")), FirstLabelEq("Person"))));
  EXPECT_FALSE(RefersOnlyToFirstNode(*Condition::And(
      FirstPropEq("name", Value("Moe")), LastLabelEq("Person"))));

  EXPECT_TRUE(RefersOnlyToLastNode(*LastPropEq("name", Value("Apu"))));
  EXPECT_TRUE(RefersOnlyToLastNode(*LastLabelEq("Person")));
  EXPECT_FALSE(RefersOnlyToLastNode(*FirstLabelEq("Person")));
  EXPECT_FALSE(RefersOnlyToLastNode(*LenEq(1)));
}

/// A random condition that reads only the first node: atoms over
/// label(first), first.pr, label(node(1)) and node(1).pr with every
/// comparator, properties that some or no node has, and ∧ ∨ ¬ above them.
ConditionPtr RandomFirstNodeCondition(std::mt19937_64& rng, int depth) {
  if (depth > 0 && rng() % 2 == 0) {
    ConditionPtr l = RandomFirstNodeCondition(rng, depth - 1);
    switch (rng() % 3) {
      case 0:
        return Condition::Not(std::move(l));
      case 1:
        return Condition::And(std::move(l),
                              RandomFirstNodeCondition(rng, depth - 1));
      default:
        return Condition::Or(std::move(l),
                             RandomFirstNodeCondition(rng, depth - 1));
    }
  }
  const AccessKind accesses[] = {AccessKind::kFirstLabel,
                                 AccessKind::kFirstProp,
                                 AccessKind::kNodeLabel, AccessKind::kNodeProp};
  const char* properties[] = {"name", "content", "missing"};
  const Value constants[] = {Value("Moe"), Value("Person"), Value("M"),
                             Value("Message"), Value(3), Value("")};
  const AccessKind access = accesses[rng() % 4];
  const bool positional = access == AccessKind::kNodeLabel ||
                          access == AccessKind::kNodeProp;
  const bool prop = access == AccessKind::kFirstProp ||
                    access == AccessKind::kNodeProp;
  return Condition::MakeSimple(
      access, positional ? 1 : 0, prop ? properties[rng() % 3] : "",
      static_cast<CompareOp>(rng() % 9), constants[rng() % 6]);
}

TEST_F(ConditionTest, FirstNodeConditionsReadTheSameOnTheZeroLengthPath) {
  // The σ seek and ϕ's seed resolution decide a first-node condition per
  // node, on Path::SingleNode(n): that must agree with every path from n.
  std::mt19937_64 rng(20261018);
  size_t true_seen = 0, false_seen = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    // A random walk of length 0..4 from a random node.
    std::vector<NodeId> nodes = {
        static_cast<NodeId>(rng() % g_.num_nodes())};
    std::vector<EdgeId> edges;
    for (size_t len = rng() % 5; len > 0; --len) {
      const NeighborRange out = g_.OutEdges(nodes.back());
      if (out.empty()) break;
      const EdgeId e = out.begin()[rng() % out.size()];
      edges.push_back(e);
      nodes.push_back(g_.Target(e));
    }
    const Path p(nodes, edges);
    const ConditionPtr c = RandomFirstNodeCondition(rng, 2);
    ASSERT_TRUE(RefersOnlyToFirstNode(*c)) << c->ToString();
    const bool on_path = c->Evaluate(g_, p);
    EXPECT_EQ(c->Evaluate(g_, Path::SingleNode(p.First())), on_path)
        << c->ToString() << " on " << p.ToString(g_);
    (on_path ? true_seen : false_seen) += 1;
  }
  EXPECT_GT(true_seen, 100u);
  EXPECT_GT(false_seen, 100u);
}

TEST_F(ConditionTest, AnalysisLenAndPositions) {
  EXPECT_TRUE(UsesLen(*LenEq(1)));
  EXPECT_TRUE(UsesLen(*Condition::And(FirstLabelEq("x"), LenEq(1))));
  EXPECT_FALSE(UsesLen(*EdgeLabelEq(1, "Knows")));

  EXPECT_EQ(MaxNodePosition(*NodeLabelEq(3, "x"), 99), 3u);
  EXPECT_EQ(MaxNodePosition(*FirstLabelEq("x"), 99), 1u);
  EXPECT_EQ(MaxNodePosition(*LastLabelEq("x"), 99), 99u);  // dynamic
  EXPECT_EQ(MaxNodePosition(
                *Condition::And(NodeLabelEq(2, "x"), NodePropEq(5, "p", 1)),
                99),
            5u);
  EXPECT_EQ(MaxEdgePosition(*EdgeLabelEq(4, "x"), 99), 4u);
  EXPECT_EQ(MaxEdgePosition(*FirstLabelEq("x"), 99), 0u);
  EXPECT_EQ(MaxEdgePosition(*LenEq(1), 99), 99u);  // dynamic
}

TEST_F(ConditionTest, UnlabelledObjectsNeverMatchLabelConditions) {
  GraphBuilder b;
  NodeId a = b.AddNode();  // no label
  NodeId c = b.AddNode();
  auto e = b.AddEdge(a, c);
  ASSERT_TRUE(e.ok());
  PropertyGraph g = b.Build();
  Path p = Path::EdgeOf(g, *e);
  EXPECT_FALSE(FirstLabelEq("Person")->Evaluate(g, p));
  EXPECT_FALSE(EdgeLabelEq(1, "Knows")->Evaluate(g, p));
  // Negation of a failed access is still false (missing-data semantics).
  EXPECT_FALSE(Condition::MakeSimple(AccessKind::kEdgeLabel, 1, {},
                                     CompareOp::kNe, Value("Knows"))
                   ->Evaluate(g, p));
}

}  // namespace
}  // namespace pathalg

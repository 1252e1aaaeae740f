// The randomized differential harness that guards the CSR adjacency
// layout: seeded random multigraphs (parallel edges, self-loops,
// unlabelled edges) × random top-closure regexes, evaluated two ways —
// CSR-backed algebra plans and the NFA product-automaton baseline —
// which must agree path-for-path under every semantics. All seeds are
// fixed, so CTest runs are deterministic; failing trials echo their seed
// and regex.
//
// Trial budget: ≥200 graph×query trials per semantics (walk runs on
// random DAGs, where its answer sets are finite).

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <string>
#include <vector>

#include "algebra/core_ops.h"
#include "fuzz_util.h"
#include "path/path_index.h"
#include "path/path_ops.h"
#include "plan/evaluator.h"
#include "workload/generators.h"

namespace pathalg {
namespace {

// The regex label pool deliberately includes "d", which the graph
// generator never uses — absent labels must match nothing in every layout.
const std::vector<std::string> kRegexLabels = {"a", "b", "c", "d"};
const std::vector<std::string> kGraphLabels = {"a", "b", "c"};

constexpr size_t kTrialsPerSemantics = 220;

PropertyGraph TrialGraph(std::mt19937_64& rng, bool acyclic) {
  UniformMultigraphOptions opts;
  opts.num_nodes = 4 + rng() % 5;   // 4..8
  opts.num_edges = 6 + rng() % 9;   // 6..14
  opts.labels = kGraphLabels;
  opts.unlabeled_percent = 15;
  opts.acyclic = acyclic;
  opts.seed = rng();
  return MakeUniformMultigraph(opts);
}

void RunFuzzLoop(PathSemantics semantics, bool acyclic_graphs) {
  for (uint64_t trial = 1; trial <= kTrialsPerSemantics; ++trial) {
    // Everything about the trial derives from this one seed.
    const uint64_t seed =
        trial * 2654435761u + static_cast<uint64_t>(semantics);
    std::mt19937_64 rng(seed);
    PropertyGraph g = TrialGraph(rng, acyclic_graphs);
    std::string regex = fuzz::RandomTopClosureRegex(rng, kRegexLabels);
    EXPECT_TRUE(fuzz::RunDifferentialTrial(
        g, regex, semantics,
        "trial " + std::to_string(trial) + " seed " + std::to_string(seed)));
    if (::testing::Test::HasFailure()) break;  // one repro is enough
  }
}

TEST(CsrDifferentialFuzz, Trail) { RunFuzzLoop(PathSemantics::kTrail, false); }

TEST(CsrDifferentialFuzz, Acyclic) {
  RunFuzzLoop(PathSemantics::kAcyclic, false);
}

TEST(CsrDifferentialFuzz, Simple) {
  RunFuzzLoop(PathSemantics::kSimple, false);
}

TEST(CsrDifferentialFuzz, Shortest) {
  RunFuzzLoop(PathSemantics::kShortest, false);
}

TEST(CsrDifferentialFuzz, WalkOnRandomDags) {
  // Walks are only finite on DAGs; cyclic walk divergence is covered by
  // the budget tests in recursive_test.cc.
  RunFuzzLoop(PathSemantics::kWalk, true);
}

// --- The evaluator's index access paths ------------------------------------
//
// σ_c(Edges(G)) is answered by an adjacency seek when c's top-level
// conjuncts bind the edge label or the source node, and ⋈(X, label atom)
// by probing Last(p) in the label CSR. Both must be invisible: the same
// paths in the same order, and the same op_count, as the generic operators
// over the full edge scan.

/// A random simple condition over a one-edge path. Constants reach one past
/// the node ids and labels include "d" and "Person", which the graphs never
/// use; "weight" and "missing" are properties no object has.
ConditionPtr RandomAtom(std::mt19937_64& rng, size_t num_nodes) {
  const int64_t k = static_cast<int64_t>(rng() % (num_nodes + 2));
  const std::string label = kRegexLabels[rng() % kRegexLabels.size()];
  const std::string node_label = rng() % 2 == 0 ? "Node" : "Person";
  switch (rng() % 12) {
    case 0:
      return FirstPropEq("id", Value(k));
    case 1:
      return Condition::MakeSimple(AccessKind::kNodeProp, 1, "id",
                                   CompareOp::kLt, Value(k));
    case 2:
      return FirstLabelEq(node_label);
    case 3:
      return NodeLabelEq(1, node_label);
    case 4:
      return FirstPropExists(rng() % 2 == 0 ? "id" : "missing");
    case 5:
      return LastPropEq("id", Value(k));
    case 6:
    case 7:
      return EdgeLabelEq(1, label);
    case 8:
      return Condition::MakeSimple(AccessKind::kEdgeLabel, 1, {},
                                   CompareOp::kNe, Value(label));
    case 9:
      return Condition::MakeSimple(AccessKind::kNodeProp, 2, "id",
                                   CompareOp::kGe, Value(k));
    case 10:
      return EdgePropEq(1, "weight", Value(int64_t{1}));
    default:
      return LenCompare(rng() % 2 == 0 ? CompareOp::kEq : CompareOp::kLe,
                        static_cast<int64_t>(rng() % 2));
  }
}

/// One conjunct: usually an atom, sometimes an OR/NOT of atoms (which is
/// still seekable when it reads only the first node).
ConditionPtr RandomConjunct(std::mt19937_64& rng, size_t num_nodes) {
  switch (rng() % 6) {
    case 0:
      return Condition::Or(RandomAtom(rng, num_nodes),
                           RandomAtom(rng, num_nodes));
    case 1:
      return Condition::Not(RandomAtom(rng, num_nodes));
    default:
      return RandomAtom(rng, num_nodes);
  }
}

/// A random σ condition: a conjunction of 1..4 conjuncts in a random AND
/// tree, or (one time in four) an OR/NOT at the top, which hides every
/// conjunct from the seek and must fall through to the generic σ.
ConditionPtr RandomSelectCondition(std::mt19937_64& rng, size_t num_nodes) {
  auto conjunction = [&]() {
    ConditionPtr c = RandomConjunct(rng, num_nodes);
    for (size_t n = rng() % 4; n > 0; --n) {
      ConditionPtr next = RandomConjunct(rng, num_nodes);
      c = rng() % 2 == 0 ? Condition::And(c, next) : Condition::And(next, c);
    }
    return c;
  };
  switch (rng() % 8) {
    case 0:
      return Condition::Or(conjunction(), conjunction());
    case 1:
      return Condition::Not(conjunction());
    default:
      return conjunction();
  }
}

/// Whether the evaluator may seek σ_c(Edges(G)): some top-level conjunct
/// is label(edge(1)) = "string" or reads only the first node.
bool Seekable(const Condition& c) {
  if (c.kind() == Condition::Kind::kAnd) {
    return Seekable(*c.left()) || Seekable(*c.right());
  }
  const bool label_atom =
      c.kind() == Condition::Kind::kSimple &&
      c.access() == AccessKind::kEdgeLabel && c.position() == 1 &&
      c.op() == CompareOp::kEq && c.constant().is_string();
  return label_atom || RefersOnlyToFirstNode(c);
}

/// The generic reading of a σ/⋈/scan plan: every operator over fully
/// materialized inputs, straight from the algebra functions.
PathSet Reference(const PropertyGraph& g, const PlanNode& node) {
  switch (node.kind()) {
    case PlanKind::kNodesScan:
      return NodesOf(g);
    case PlanKind::kEdgesScan:
      return EdgesOf(g);
    case PlanKind::kSelect:
      return Select(g, Reference(g, *node.child()), *node.condition());
    case PlanKind::kJoin:
      return Join(Reference(g, *node.children()[0]),
                  Reference(g, *node.children()[1]));
    default:
      ADD_FAILURE() << "unexpected plan kind in the access-path fuzz";
      return PathSet();
  }
}

/// The op_count the generic evaluation books: one per plan node.
void CountNodes(const PlanNode& node,
                std::array<size_t, kNumPlanKinds>* counts) {
  (*counts)[static_cast<size_t>(node.kind())] += 1;
  for (const PlanPtr& c : node.children()) CountNodes(*c, counts);
}

/// Evaluates `plan` at t ∈ {1, 4} (min_chunk 2, so even these small inputs
/// are chunked) and checks paths, order and op_count against the generic
/// reading; returns the serial run's label_scan_hits.
size_t CheckAccessPaths(const PropertyGraph& g, const PlanPtr& plan,
                        const PathSet& expected, const std::string& what) {
  std::array<size_t, kNumPlanKinds> counts{};
  CountNodes(*plan, &counts);
  size_t hits = 0;
  for (size_t threads : {1, 4}) {
    EvalStats stats;
    EvalOptions opts;
    opts.threads = threads;
    opts.min_chunk = 2;
    opts.stats = &stats;
    auto got = Evaluate(g, plan, opts);
    EXPECT_TRUE(got.ok()) << got.status().ToString() << " " << what;
    if (!got.ok()) return 0;
    EXPECT_EQ(got->paths(), expected.paths())
        << what << " t=" << threads << " plan " << plan->ToAlgebraString();
    EXPECT_EQ(stats.op_count, counts) << what << " t=" << threads;
    if (threads == 1) {
      hits = stats.label_scan_hits;
    } else {
      EXPECT_EQ(stats.label_scan_hits, hits) << what << " t=" << threads;
    }
  }
  return hits;
}

// Seeded random σ conditions over Edges(G) and ⋈(X, label atom) plans on
// small trial graphs and larger uniform multigraphs, both with unlabelled
// edges, self-loops and parallel edges.
TEST(CsrDifferentialFuzz, LabelScanFastPathMatchesGenericSelect) {
  size_t seeks = 0;
  size_t fallthroughs = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    std::mt19937_64 rng(seed);
    PropertyGraph g;
    if (seed % 3 == 0) {
      UniformMultigraphOptions opts;
      opts.num_nodes = 20 + rng() % 20;
      opts.num_edges = 60 + rng() % 120;
      opts.labels = kGraphLabels;
      opts.unlabeled_percent = 15;
      opts.seed = rng();
      g = MakeUniformMultigraph(opts);
    } else {
      g = TrialGraph(rng, false);
    }
    const std::string trial = "seed " + std::to_string(seed);

    // σ_c(Edges(G)) against Select over the full edge scan.
    for (int i = 0; i < 8; ++i) {
      ConditionPtr c = RandomSelectCondition(rng, g.num_nodes());
      PlanPtr plan = PlanNode::Select(c, PlanNode::EdgesScan());
      const std::string what = trial + " σ[" + c->ToString() + "]";
      const size_t hits =
          CheckAccessPaths(g, plan, Select(g, EdgesOf(g), *c), what);
      EXPECT_EQ(hits, Seekable(*c) ? 1u : 0u) << what;
      if (hits == 1) {
        ++seeks;
      } else {
        ++fallthroughs;
      }
      if (::testing::Test::HasFailure()) return;  // one repro is enough
    }

    // ⋈(X, σ_{label(edge(1))=L}(Edges(G))) against Join(X, EdgesWithLabelOf).
    for (int i = 0; i < 4; ++i) {
      PlanPtr left;
      switch (rng() % 3) {
        case 0:
          left = PlanNode::NodesScan();
          break;
        case 1:
          left = PlanNode::Select(RandomSelectCondition(rng, g.num_nodes()),
                                  PlanNode::EdgesScan());
          break;
        default:  // a nested probe: (label atom ⋈ label atom) ⋈ label atom
          left = PlanNode::Join(
              PlanNode::Select(EdgeLabelEq(1, kRegexLabels[rng() % 4]),
                               PlanNode::EdgesScan()),
              PlanNode::Select(EdgeLabelEq(1, kRegexLabels[rng() % 4]),
                               PlanNode::EdgesScan()));
      }
      const std::string label = kRegexLabels[rng() % kRegexLabels.size()];
      PlanPtr plan = PlanNode::Join(
          left, PlanNode::Select(EdgeLabelEq(1, label), PlanNode::EdgesScan()));
      const std::string what = trial + " " + plan->ToAlgebraString();
      const PathSet expected = Join(Reference(g, *left),
                                    EdgesWithLabelOf(g, g.FindLabel(label)));
      EXPECT_EQ(expected.paths(), Reference(g, *plan).paths()) << what;
      EXPECT_GE(CheckAccessPaths(g, plan, expected, what), 1u) << what;
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Both sides of the dispatch were exercised.
  EXPECT_GT(seeks, 300u);
  EXPECT_GT(fallthroughs, 150u);
}

// The dense First(p)-index underneath ⋈ must agree with a brute-force
// nested-loop join on random path sets.
TEST(CsrDifferentialFuzz, DenseJoinIndexMatchesBruteForce) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    PropertyGraph g = TrialGraph(rng, false);
    PathSet s1 = EdgesOf(g);
    PathSet s2;
    // A random subset of edges plus some zero-length paths.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (rng() % 2 == 0) s2.Insert(Path::EdgeOf(g, e));
    }
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (rng() % 3 == 0) s2.Insert(Path::SingleNode(n));
    }
    PathSet brute;
    for (PathRef p1 : s1) {
      for (PathRef p2 : s2) {
        if (p1.Last() == p2.First()) {
          brute.Insert(Path::ConcatUnchecked(p1, p2));
        }
      }
    }
    EXPECT_EQ(Join(s1, s2), brute) << "seed " << seed;
  }
}

TEST(PathFirstIndexTest, BucketsMatchInputOrder) {
  PropertyGraph g = MakeChainGraph(4, "k");
  PathSet s = EdgesOf(g);
  PathFirstIndex idx(s.paths());
  EXPECT_EQ(idx.size(), s.size());
  size_t total = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (uint32_t i : idx.ForFirst(n)) {
      EXPECT_EQ(s[i].First(), n);
      ++total;
    }
  }
  EXPECT_EQ(total, s.size());
  // Out-of-range and empty buckets.
  EXPECT_TRUE(idx.ForFirst(kInvalidId).empty());
  EXPECT_TRUE(idx.ForFirst(3).empty());  // chain tail starts no edge
  EXPECT_TRUE(PathFirstIndex(PathList()).ForFirst(0).empty());
}

}  // namespace
}  // namespace pathalg

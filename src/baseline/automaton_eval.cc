#include "baseline/automaton_eval.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algebra/eval_budget.h"
#include "baseline/nfa.h"
#include "baseline/product_index.h"
#include "common/thread_pool.h"

namespace pathalg {

namespace {

/// Per-chunk enumeration state: runs the product traversal for a range of
/// source nodes, writing into a chunk-private PathSet. Paths start at
/// their source, so per-source outputs are disjoint across sources and a
/// chunk-local dedup equals the global one; the chunk caps its output at
/// max_paths + 1 distinct paths — enough for the caller's merge to detect
/// a global budget trip — and keeps enumerating without inserting past
/// the cap (the traversal itself is bounded by max_path_length).
///
/// Budget edges follow algebra/eval_budget.h: `dropped` is set only when
/// an *admissible* accepting one-step extension was suppressed by
/// max_path_length (checked by lookahead at the cap), and is consulted by
/// the caller only after the complete enumeration. max_iterations has no
/// fixpoint counterpart here and is not consulted.
class SourceRunner {
 public:
  SourceRunner(const PropertyGraph& g, const Nfa& nfa,
               const ProductIndex& index, const AutomatonEvalOptions& options)
      : g_(g), nfa_(nfa), index_(index), options_(options) {}

  void Run(NodeId source, PathSet* out) {
    out_ = out;
    if (options_.semantics == PathSemantics::kShortest) {
      RunShortestFrom(source);
    } else {
      RunDfsFrom(source);
    }
  }

  bool dropped() const { return dropped_; }

  /// True once the evaluation's CancelToken tripped; the caller skips
  /// the remaining sources of its chunk.
  bool stopped() const { return stopped_; }

 private:
  /// Stride poll inside the product traversals (same rationale as the
  /// frontier engine's SegmentWalker): once the token trips the runner
  /// stops emitting and unwinds — safe because a cancelled evaluation
  /// discards every partial result (eval_budget.h).
  bool Poll() {
    if (!stopped_ && options_.limits.cancel != nullptr &&
        --cancel_countdown_ == 0) {
      cancel_countdown_ = kCancelCheckStride;
      if (options_.limits.cancel->Cancelled()) stopped_ = true;
    }
    return stopped_;
  }

  bool TargetOk(NodeId n) const {
    return !options_.target.has_value() || *options_.target == n;
  }

  void Emit(PathRef p) {
    // size() > max_paths means the chunk already holds the max_paths + 1
    // distinct paths the merge needs to see; stop growing.
    if (out_->size() > options_.limits.max_paths) return;
    out_->Insert(p);
  }

  // --- DFS enumeration for walk / trail / acyclic / simple ----------------

  void RunDfsFrom(NodeId source) {
    if (nfa_.IsAccepting(nfa_.start()) && TargetOk(source)) {
      Emit(Path::SingleNode(source));
    }
    nodes_ = {source};
    edges_.clear();
    used_edges_.clear();
    visited_nodes_ = {source};
    Dfs(source, nfa_.start());
  }

  /// One product step of the DFS: edge `e` under the automaton transitions
  /// `next_states` (all carrying λ(e)).
  void DfsStep(EdgeId e, const std::vector<uint32_t>& next_states) {
    NodeId next = g_.Target(e);

    bool closes_cycle = false;  // simple: next == first, path becomes closed
    switch (options_.semantics) {
      case PathSemantics::kWalk:
        break;
      case PathSemantics::kTrail:
        if (used_edges_.count(e) != 0) return;
        break;
      case PathSemantics::kAcyclic:
        if (visited_nodes_.count(next) != 0) return;
        break;
      case PathSemantics::kSimple:
        if (visited_nodes_.count(next) != 0) {
          if (next != nodes_.front()) return;
          closes_cycle = true;
        }
        break;
      case PathSemantics::kShortest:
        return;  // shortest uses BFS, never this DFS
    }

    nodes_.push_back(next);
    edges_.push_back(e);
    used_edges_.insert(e);
    bool newly_visited = visited_nodes_.insert(next).second;

    for (uint32_t next_state : next_states) {
      if (nfa_.IsAccepting(next_state) && TargetOk(next)) {
        Emit(Path(nodes_, edges_));
      }
      if (!closes_cycle) Dfs(next, next_state);
    }

    nodes_.pop_back();
    edges_.pop_back();
    used_edges_.erase(e);
    if (newly_visited) visited_nodes_.erase(next);
  }

  void Dfs(NodeId node, uint32_t state) {
    if (Poll()) return;
    if (edges_.size() >= options_.limits.max_path_length) {
      // The cap is a silent filter; `dropped` records only *admissible*
      // suppressed candidates (semantics checked before length —
      // eval_budget.h), so look one step ahead instead of flagging
      // unconditionally: a walk that merely touched the cap with no
      // admissible accepting extension lost nothing.
      if (!dropped_) dropped_ = HasAdmissibleAcceptingExtension(node, state);
      return;
    }
    // Label-partitioned expansion: one CSR slice per live NFA label, each a
    // contiguous range scan — no per-edge hash probe. Arcs are
    // label-sorted (ProductIndex), so enumeration order is a pure function
    // of the graph and the regex.
    for (const ProductIndex::Arc& arc : index_.forward[state]) {
      for (EdgeId e : g_.OutEdgesWithLabel(node, arc.label)) {
        DfsStep(e, arc.states);
      }
    }
  }

  /// True when some one-edge extension of the current DFS path passes the
  /// restrictor and lands in an accepting state — i.e. an admissible
  /// accepting candidate of length max_path_length + 1 exists.
  bool HasAdmissibleAcceptingExtension(NodeId node, uint32_t state) const {
    for (const ProductIndex::Arc& arc : index_.forward[state]) {
      bool accepts = false;
      for (uint32_t ns : arc.states) {
        if (nfa_.IsAccepting(ns)) {
          accepts = true;
          break;
        }
      }
      if (!accepts) continue;
      for (EdgeId e : g_.OutEdgesWithLabel(node, arc.label)) {
        NodeId next = g_.Target(e);
        switch (options_.semantics) {
          case PathSemantics::kWalk:
            break;
          case PathSemantics::kTrail:
            if (used_edges_.count(e) != 0) continue;
            break;
          case PathSemantics::kAcyclic:
            if (visited_nodes_.count(next) != 0) continue;
            break;
          case PathSemantics::kSimple:
            if (visited_nodes_.count(next) != 0 && next != nodes_.front()) {
              continue;
            }
            break;
          case PathSemantics::kShortest:
            return false;
        }
        if (TargetOk(next)) return true;
      }
    }
    return false;
  }

  // --- BFS + backward enumeration for shortest -----------------------------

  void RunShortestFrom(NodeId source) {
    constexpr size_t kInf = std::numeric_limits<size_t>::max();
    const size_t num_states = nfa_.num_states();
    auto key = [&](NodeId n, uint32_t s) { return n * num_states + s; };
    std::vector<size_t> dist(g_.num_nodes() * num_states, kInf);
    std::queue<std::pair<NodeId, uint32_t>> queue;
    dist[key(source, nfa_.start())] = 0;
    queue.push({source, nfa_.start()});
    while (!queue.empty()) {
      if (Poll()) return;
      auto [node, state] = queue.front();
      queue.pop();
      size_t d = dist[key(node, state)];
      // kShortest treats the cap as a pure silent filter (eval_budget.h).
      if (d >= options_.limits.max_path_length) continue;
      for (const ProductIndex::Arc& arc : index_.forward[state]) {
        for (EdgeId e : g_.OutEdgesWithLabel(node, arc.label)) {
          NodeId next = g_.Target(e);
          for (uint32_t ns : arc.states) {
            if (dist[key(next, ns)] == kInf) {
              dist[key(next, ns)] = d + 1;
              queue.push({next, ns});
            }
          }
        }
      }
    }

    // Per target: best = min dist over accepting states, then enumerate all
    // dist-decreasing backward paths of exactly that length.
    for (NodeId t = 0; t < g_.num_nodes(); ++t) {
      if (stopped_) return;
      if (!TargetOk(t)) continue;
      size_t best = kInf;
      for (uint32_t s = 0; s < num_states; ++s) {
        if (nfa_.IsAccepting(s)) best = std::min(best, dist[key(t, s)]);
      }
      if (best == kInf) continue;
      if (best == 0) {
        Emit(Path::SingleNode(t));
        continue;
      }
      for (uint32_t s = 0; s < num_states; ++s) {
        if (!nfa_.IsAccepting(s) || dist[key(t, s)] != best) continue;
        nodes_suffix_ = {t};
        edges_suffix_.clear();
        Backtrack(source, t, s, best, dist, num_states);
      }
    }
  }

  /// Walks dist-decreasing product edges backwards from (node, state) at
  /// depth `d`, emitting every completed shortest path.
  void Backtrack(NodeId source, NodeId node, uint32_t state, size_t d,
                 const std::vector<size_t>& dist, size_t num_states) {
    auto key = [&](NodeId n, uint32_t s) { return n * num_states + s; };
    if (Poll()) return;
    if (d == 0) {
      if (node == source && state == nfa_.start()) {
        std::vector<NodeId> nodes(nodes_suffix_.rbegin(),
                                  nodes_suffix_.rend());
        std::vector<EdgeId> edges(edges_suffix_.rbegin(),
                                  edges_suffix_.rend());
        Emit(Path(std::move(nodes), std::move(edges)));
      }
      return;
    }
    for (const ProductIndex::Arc& arc : index_.backward[state]) {
      for (EdgeId e : g_.InEdgesWithLabel(node, arc.label)) {
        NodeId prev = g_.Source(e);
        for (uint32_t ps : arc.states) {
          if (dist[key(prev, ps)] != d - 1) continue;
          nodes_suffix_.push_back(prev);
          edges_suffix_.push_back(e);
          Backtrack(source, prev, ps, d - 1, dist, num_states);
          nodes_suffix_.pop_back();
          edges_suffix_.pop_back();
        }
      }
    }
  }

  const PropertyGraph& g_;
  const Nfa& nfa_;
  const ProductIndex& index_;
  const AutomatonEvalOptions& options_;
  PathSet* out_ = nullptr;

  // DFS working state.
  std::vector<NodeId> nodes_;
  std::vector<EdgeId> edges_;
  std::unordered_set<EdgeId> used_edges_;
  std::unordered_set<NodeId> visited_nodes_;
  bool dropped_ = false;
  uint32_t cancel_countdown_ = kCancelCheckStride;
  bool stopped_ = false;

  // Backtrack working state (stored target-to-source, reversed on emit).
  std::vector<NodeId> nodes_suffix_;
  std::vector<EdgeId> edges_suffix_;
};

}  // namespace

Result<PathSet> EvaluateRpqAutomaton(const PropertyGraph& g,
                                     const RegexPtr& regex,
                                     const AutomatonEvalOptions& options) {
  if (regex == nullptr) return Status::InvalidArgument("null regex");
  if (options.source.has_value() && !g.IsValidNode(*options.source)) {
    return Status::InvalidArgument("unknown source node");
  }
  const Nfa nfa = Nfa::FromRegex(regex);
  const ProductIndex index(g, nfa);

  std::vector<NodeId> sources;
  if (options.source.has_value()) {
    sources.push_back(*options.source);
  } else {
    sources.reserve(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) sources.push_back(n);
  }

  // Per-source fan-out: every path starts at its source, so chunk outputs
  // are disjoint and merging them in chunk index order reproduces the
  // serial source-major enumeration byte-for-byte at any thread count.
  // Chunk bodies only write chunk-private state (no locks).
  const ChunkLayout layout = ThreadPool::PlanFor(sources.size(),
                                                 options.parallel);
  std::vector<PathSet> results(layout.num_chunks);
  std::vector<uint8_t> chunk_dropped(layout.num_chunks, 0);
  ThreadPool::Shared().ParallelFor(
      sources.size(), options.parallel, options.parallel_stats,
      [&](size_t chunk, size_t begin, size_t end) {
        SourceRunner runner(g, nfa, index, options);
        for (size_t i = begin; i < end; ++i) {
          if (runner.stopped()) break;
          runner.Run(sources[i], &results[chunk]);
        }
        chunk_dropped[chunk] = runner.dropped() ? 1 : 0;
      });
  // Runners that saw the token trip stopped mid-traversal, so chunk
  // outputs may be truncated — cancellation discards them all.
  if (CancelRequested(options.limits.cancel)) {
    return EvalCancelled(*options.limits.cancel);
  }

  PathSet out;
  bool dropped = false;
  for (size_t c = 0; c < layout.num_chunks; ++c) {
    if (chunk_dropped[c] != 0) dropped = true;
    for (PathRef p : results[c]) {
      if (out.Contains(p)) continue;  // duplicates never trip the budget
      if (out.size() >= options.limits.max_paths) {
        if (options.limits.truncate) return out;
        return BudgetExhausted("max_paths", options.semantics);
      }
      out.Insert(p);
    }
  }
  // `dropped` is only consulted after the complete enumeration, so a
  // max_paths trip anywhere above takes precedence (eval_budget.h).
  if (dropped && !options.limits.truncate) {
    return BudgetExhausted("max_path_length", options.semantics);
  }
  return out;
}

}  // namespace pathalg

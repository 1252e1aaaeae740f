#include "algebra/frontier_closure.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "algebra/eval_budget.h"
#include "baseline/nfa.h"
#include "baseline/product_index.h"
#include "path/path_index.h"

namespace pathalg {

bool FrontierEligible(const RegexPtr& inner) {
  if (inner == nullptr) return false;
  switch (inner->kind()) {
    case RegexKind::kLabel:
      return true;
    case RegexKind::kConcat:
    case RegexKind::kUnion:
      return FrontierEligible(inner->left()) &&
             FrontierEligible(inner->right());
    case RegexKind::kPlus:
    case RegexKind::kStar:
    case RegexKind::kOptional:
      return false;  // nested closure: fall back to the materializing engines
  }
  return false;
}

namespace {

/// One chunk's output: its candidates with their hashes, written flat
/// (the merge is then a probe + id copy each, PathSet::InsertHashed), the
/// eval_budget.h `dropped` flag, and product counters, which only the
/// NFA-fused sources advance.
struct ChunkOutput {
  PathList candidates;
  bool dropped = false;
  FrontierClosureStats counts;
};

/// Restrictor before length: only *admissible* overlong candidates set
/// *dropped (the eval_budget.h predicate).
bool Admissible(PathRef q, PathSemantics semantics,
                const EvalLimits& limits, bool* dropped) {
  if (!SatisfiesSemantics(q, semantics)) return false;
  if (q.Len() <= limits.max_path_length) return true;
  *dropped = true;
  return false;
}

/// Segment source over the graph: a segment is one full product walk
/// through NFA(inner) from a prefix path's last node to any accepting
/// state, enforcing the restrictor semantics incrementally over the
/// *whole* path (prefix included) and writing a candidate path out only
/// when a walk survives to an accepting state. A walk that repeats an
/// edge under TRAIL or a node under ACYCLIC dies at that product step;
/// the doomed candidate is never written out. NFA(inner) is
/// closure-free, hence a DAG, so every segment walk terminates without a
/// depth guard.
class SegmentWalker {
 public:
  SegmentWalker(const PropertyGraph& g, const Nfa& nfa,
                const ProductIndex& index, const PhiSpec& spec,
                const EvalLimits& limits)
      : g_(g), nfa_(nfa), index_(index), spec_(spec), limits_(limits) {}

  /// Round 0 starts at the spec's start nodes (every node, or the
  /// seeds): every one-segment path from the i-th of them.
  void Seed(size_t i, ChunkOutput* out) {
    const NodeId start = spec_.Start(i);
    const PathRef p(&start, 1);
    Extend(p, p.Hash(), out);
  }

  /// Appends every surviving one-segment extension of `prefix`, whose
  /// hash is `prefix_hash`, to `out`.
  void Extend(PathRef prefix, size_t prefix_hash, ChunkOutput* out) {
    out_ = out;
    nodes_.assign(prefix.nodes().begin(), prefix.nodes().end());
    edges_.assign(prefix.edges().begin(), prefix.edges().end());
    hash_ = prefix_hash;
    Walk(prefix.Last(), nfa_.start());
  }

 private:
  void Walk(NodeId node, uint32_t state) {
    if (stopped_) return;
    // Arcs are label-sorted and edge runs are CSR-ordered, so the
    // enumeration order — and with it every truncation point — is a pure
    // function of the graph and the regex.
    for (const ProductIndex::Arc& arc : index_.forward[state]) {
      for (EdgeId e : g_.OutEdgesWithLabel(node, arc.label)) {
        Step(e, arc.states);
      }
    }
  }

  /// One product step: edge `e` under all NFA transitions carrying λ(e).
  /// Restrictor membership is a linear scan of the walk itself — walks
  /// are bounded by max_path_length and usually far shorter, so scanning
  /// the live nodes_/edges_ vectors beats maintaining hash sets.
  void Step(EdgeId e, const std::vector<uint32_t>& next_states) {
    // Stride poll: a single segment's product walk can be long; once the
    // token trips the walker stops emitting and unwinds. Safe because a
    // cancelled evaluation discards every partial result (eval_budget.h),
    // so the truncated candidate buffers are never observed.
    if (limits_.cancel != nullptr && --cancel_countdown_ == 0) {
      cancel_countdown_ = kCancelCheckStride;
      if (limits_.cancel->Cancelled()) stopped_ = true;
    }
    if (stopped_) return;
    const NodeId next = g_.Target(e);
    bool closes_cycle = false;  // simple: path becomes closed at `next`
    switch (spec_.semantics) {
      case PathSemantics::kWalk:
        break;
      case PathSemantics::kTrail:
        if (std::find(edges_.begin(), edges_.end(), e) != edges_.end()) {
          return;
        }
        break;
      case PathSemantics::kAcyclic:
        if (std::find(nodes_.begin(), nodes_.end(), next) != nodes_.end()) {
          return;
        }
        break;
      case PathSemantics::kSimple:
        if (std::find(nodes_.begin(), nodes_.end(), next) != nodes_.end()) {
          if (next != nodes_.front()) return;
          closes_cycle = true;
        }
        break;
      case PathSemantics::kShortest:
        return;  // shortest uses the product BFS, never this walker
    }

    nodes_.push_back(next);
    edges_.push_back(e);
    const size_t prefix_hash = hash_;
    hash_ = PathHashStep(PathHashStep(hash_, e), next);

    for (uint32_t next_state : next_states) {
      ++out_->counts.states_expanded;
      if (nfa_.IsAccepting(next_state)) {
        if (edges_.size() > limits_.max_path_length) {
          // Admissible candidate suppressed by the cap: the walk passed
          // every restrictor check, so this is exactly the `dropped`
          // predicate of eval_budget.h.
          out_->dropped = true;
        } else {
          EmitSurvivor();
        }
      }
      if (!closes_cycle) Walk(next, next_state);
    }

    nodes_.pop_back();
    edges_.pop_back();
    hash_ = prefix_hash;
  }

  /// Writes the current walk out as a candidate. The only place a walk's
  /// ids are copied: walks pruned mid-segment write nothing.
  void EmitSurvivor() {
    out_->candidates.Append(nodes_, edges_, hash_);
    ++out_->counts.paths_reconstructed;
  }

  const PropertyGraph& g_;
  const Nfa& nfa_;
  const ProductIndex& index_;
  const PhiSpec& spec_;
  const EvalLimits& limits_;

  ChunkOutput* out_ = nullptr;
  std::vector<NodeId> nodes_;
  std::vector<EdgeId> edges_;
  /// Hash of the walk in nodes_/edges_, extended one step at a time.
  size_t hash_ = 0;
  uint32_t cancel_countdown_ = kCancelCheckStride;
  bool stopped_ = false;
};

/// Segment source over a materialized base set: round 0 admits the
/// non-empty base paths themselves (with seeds, only the seed-first
/// ones), and a segment is one path of ϕ0 (the non-empty base paths an
/// unseeded round 0 admits) whose First() is the prefix's last node.
class BaseSource {
 public:
  BaseSource(const PathSet& base, const PathFirstIndex& phi0,
             const PhiSpec& spec, const EvalLimits& limits)
      : base_(base), index_(phi0), spec_(spec), limits_(limits) {}

  void Seed(size_t i, ChunkOutput* out) {
    if (!base_[i].empty() && spec_.Admits(base_[i].First()) &&
        Admissible(base_[i], spec_.semantics, limits_, &out->dropped)) {
      out->candidates.Append(base_[i], base_.hash_of(i));
    }
  }

  /// Each concatenation is checked in a scratch buffer first, so a
  /// rejected candidate never reaches the chunk's output.
  void Extend(PathRef prefix, size_t prefix_hash, ChunkOutput* out) {
    for (uint32_t j : index_.ForFirst(prefix.Last())) {
      const PathRef segment = base_[j];
      scratch_.clear();
      AppendConcatIds(prefix, segment, &scratch_);
      const PathRef q(scratch_.data(), scratch_.size());
      if (!Admissible(q, spec_.semantics, limits_, &out->dropped)) continue;
      out->candidates.Append(
          q, HashOfConcat(prefix_hash, segment, base_.hash_of(j)));
    }
  }

 private:
  const PathSet& base_;
  const PathFirstIndex& index_;
  const PhiSpec& spec_;
  const EvalLimits& limits_;
  std::vector<uint32_t> scratch_;
};

/// The one semi-naive round driver for non-shortest ϕ. `make_source()`
/// builds a chunk-private segment source (SegmentWalker or BaseSource):
/// round 0 calls Seed(i) for i ∈ [0, num_seeds), round r calls Extend on
/// every path round r−1 discovered (and its stored hash), both writing
/// into the chunk's ChunkOutput. Dedup, budgets and the next frontier
/// live on the calling thread, which merges chunk buffers in chunk index
/// order — results, partial answers and Status are byte-identical at any
/// thread count, with every trip point of algebra/eval_budget.h.
template <typename MakeSource>
Result<PathSet> FrontierDfs(size_t num_seeds, const MakeSource& make_source,
                            PathSemantics semantics, const EvalLimits& limits,
                            const ParallelOptions& parallel,
                            ParallelStats* parallel_stats,
                            FrontierClosureStats* stats) {
  PathSet acc;
  // The frontier holds indices into acc's append-only storage instead of
  // path copies: merge inserts each accepted path once and records where
  // it landed. Workers read their prefixes from acc's arena (PathRef)
  // only during ParallelFor, and acc grows only on this thread after it
  // returns — so an arena that reallocates between segments never moves
  // ids under a reader, and no reader sees a rehash.
  std::vector<size_t> frontier;
  bool dropped = false;

  // Generate-and-merge in segments rather than one round-sized batch:
  // serial generation stops within one candidate of the max_paths
  // budget, and materializing a whole round's candidates up front would
  // forfeit that memory bound. A segment fills exactly one
  // over-decomposed wave of pool chunks; later segments of a round that
  // tripped the budget are simply never generated.
  const size_t min_chunk = std::max<size_t>(parallel.min_chunk, 1);
  const size_t segment = std::max<size_t>(
      2 * min_chunk, 8 * parallel.EffectiveThreads() * min_chunk);

  // Expands the n seeds (prefixes == nullptr) or the n paths indexed by
  // *prefixes, appending new paths' indices to *next. Returns false when
  // the budget tripped with truncate=true (caller returns the partial
  // `acc`).
  auto expand = [&](size_t n, const std::vector<size_t>* prefixes,
                    std::vector<size_t>* next) -> Result<bool> {
    for (size_t seg = 0; seg < n; seg += segment) {
      // The per-segment poll bounds both the latency and the wasted work
      // of a trip, and polling on the merge thread keeps chunk bodies
      // pure.
      if (CancelRequested(limits.cancel)) {
        return EvalCancelled(*limits.cancel);
      }
      const size_t m = std::min(segment, n - seg);
      const ChunkLayout layout = ThreadPool::PlanFor(m, parallel);
      std::vector<ChunkOutput> outputs(layout.num_chunks);
      ThreadPool::Shared().ParallelFor(
          m, parallel, parallel_stats,
          [&](size_t chunk, size_t begin, size_t end) {
            auto source = make_source();
            ChunkOutput* out = &outputs[chunk];
            for (size_t i = seg + begin; i < seg + end; ++i) {
              if (prefixes == nullptr) {
                source.Seed(i, out);
                continue;
              }
              const PathRef prefix = acc[(*prefixes)[i]];
              // A closed simple path repeats its endpoint on any
              // extension.
              if (semantics == PathSemantics::kSimple && prefix.Len() > 0 &&
                  prefix.First() == prefix.Last()) {
                continue;
              }
              source.Extend(prefix, acc.hash_of((*prefixes)[i]), out);
            }
          });
      // Walkers that saw the token trip stopped mid-walk, so their chunk
      // buffers may be truncated — return before the merge can mistake
      // them for a complete segment.
      if (CancelRequested(limits.cancel)) {
        return EvalCancelled(*limits.cancel);
      }
      for (ChunkOutput& out : outputs) {
        // `dropped` is only consulted at the natural fixpoint, never on
        // a budget return (eval_budget.h precedence), so folding chunk
        // flags before the budget loop cannot change behavior.
        if (out.dropped) dropped = true;
        if (stats != nullptr) {
          stats->states_expanded += out.counts.states_expanded;
          stats->paths_reconstructed += out.counts.paths_reconstructed;
        }
        const PathList& candidates = out.candidates;
        for (size_t c = 0; c < candidates.size(); ++c) {
          const PathRef q = candidates[c];
          const size_t h = candidates.hash_of(c);
          if (acc.size() >= limits.max_paths) {
            // A full accumulator trips on the first NEW candidate;
            // duplicates never trip (eval_budget.h).
            if (acc.ContainsHashed(q, h)) continue;
            if (limits.truncate) return false;
            return BudgetExhausted("max_paths", semantics);
          }
          if (acc.InsertHashed(q, h)) next->push_back(acc.size() - 1);
        }
      }
    }
    return true;
  };

  // Round 0 — the 1-segment paths, in seed order.
  PATHALG_ASSIGN_OR_RETURN(bool keep_going,
                           expand(num_seeds, nullptr, &frontier));
  size_t iterations = 0;
  while (keep_going && !frontier.empty()) {
    if (++iterations > limits.max_iterations) {
      if (limits.truncate) return acc;
      return BudgetExhausted("max_iterations", semantics);
    }
    std::vector<size_t> next;
    PATHALG_ASSIGN_OR_RETURN(keep_going,
                             expand(frontier.size(), &frontier, &next));
    frontier = std::move(next);
  }
  if (keep_going && dropped && !limits.truncate) {
    return BudgetExhausted("max_path_length", semantics);
  }
  return acc;
}

/// Shortest engine: per-source product BFS over an automaton of inner+
/// computing distances on (node, state) pairs, then backward enumeration
/// of every distance-decreasing product path — ids are written out only
/// for the per-pair-minimal survivors. Over a deterministic automaton
/// the reconstruction is exact: a graph path has one run, hence one
/// product path, so an ambiguous regex (`:a|:a/:a`) never rebuilds a
/// path once per NFA state sequence. Sources (every node, or the seeds)
/// fan out across chunks; chunk buffers merge in chunk (= source) order.
class ShortestSource {
 public:
  ShortestSource(const PropertyGraph& g, const Nfa& nfa,
                 const ProductIndex& index, const EvalLimits& limits)
      : g_(g), nfa_(nfa), index_(index), limits_(limits),
        num_states_(nfa.num_states()),
        dist_(g.num_nodes() * nfa.num_states(), kInf) {}

  void Run(NodeId source, ChunkOutput* out) {
    out_ = out;
    source_ = source;
    std::fill(dist_.begin(), dist_.end(), kInf);

    std::queue<std::pair<NodeId, uint32_t>> queue;
    dist_[Key(source, nfa_.start())] = 0;
    queue.push({source, nfa_.start()});
    while (!queue.empty()) {
      if (Poll()) return;
      auto [node, state] = queue.front();
      queue.pop();
      const size_t d = dist_[Key(node, state)];
      if (d >= limits_.max_path_length) continue;  // silent cap (contract)
      for (const ProductIndex::Arc& arc : index_.forward[state]) {
        for (EdgeId e : g_.OutEdgesWithLabel(node, arc.label)) {
          const NodeId next = g_.Target(e);
          for (uint32_t ns : arc.states) {
            ++out_->counts.states_expanded;
            if (dist_[Key(next, ns)] == kInf) {
              dist_[Key(next, ns)] = d + 1;
              queue.push({next, ns});
            }
          }
        }
      }
    }

    // Per target (node order): best = min dist over accepting states,
    // then every dist-decreasing backward path of exactly that length.
    for (NodeId t = 0; t < g_.num_nodes(); ++t) {
      if (stopped_) return;
      size_t best = kInf;
      for (uint32_t s = 0; s < num_states_; ++s) {
        if (nfa_.IsAccepting(s)) best = std::min(best, dist_[Key(t, s)]);
      }
      if (best == kInf) continue;
      if (best == 0) {
        // Reachable only if ε ∈ L(inner+); eligibility excludes that,
        // but stay correct under future relaxations.
        EmitSurvivor(PathRef(&t, 1));
        continue;
      }
      for (uint32_t s = 0; s < num_states_; ++s) {
        if (!nfa_.IsAccepting(s) || dist_[Key(t, s)] != best) continue;
        nodes_suffix_ = {t};
        edges_suffix_.clear();
        Backtrack(t, s, best);
      }
    }
  }

  /// True once the evaluation's CancelToken tripped; the caller skips
  /// the remaining sources of its chunk.
  bool stopped() const { return stopped_; }

 private:
  static constexpr size_t kInf = std::numeric_limits<size_t>::max();

  size_t Key(NodeId n, uint32_t s) const { return n * num_states_ + s; }

  /// Stride poll shared by the BFS and the backtrack enumeration (same
  /// rationale as SegmentWalker::Step). Returns the sticky stop flag.
  bool Poll() {
    if (!stopped_ && limits_.cancel != nullptr && --cancel_countdown_ == 0) {
      cancel_countdown_ = kCancelCheckStride;
      if (limits_.cancel->Cancelled()) stopped_ = true;
    }
    return stopped_;
  }

  void Backtrack(NodeId node, uint32_t state, size_t d) {
    if (Poll()) return;
    if (d == 0) {
      if (node == source_ && state == nfa_.start()) {
        path_.assign(nodes_suffix_.rbegin(), nodes_suffix_.rend());
        path_.insert(path_.end(), edges_suffix_.rbegin(),
                     edges_suffix_.rend());
        EmitSurvivor(PathRef(path_.data(), path_.size()));
      }
      return;
    }
    for (const ProductIndex::Arc& arc : index_.backward[state]) {
      for (EdgeId e : g_.InEdgesWithLabel(node, arc.label)) {
        const NodeId prev = g_.Source(e);
        for (uint32_t ps : arc.states) {
          if (dist_[Key(prev, ps)] != d - 1) continue;
          ++out_->counts.states_expanded;
          nodes_suffix_.push_back(prev);
          edges_suffix_.push_back(e);
          Backtrack(prev, ps, d - 1);
          nodes_suffix_.pop_back();
          edges_suffix_.pop_back();
        }
      }
    }
  }

  void EmitSurvivor(PathRef p) {
    out_->candidates.Append(p, p.Hash());
    ++out_->counts.paths_reconstructed;
  }

  const PropertyGraph& g_;
  const Nfa& nfa_;
  const ProductIndex& index_;
  const EvalLimits& limits_;
  const size_t num_states_;
  std::vector<size_t> dist_;

  ChunkOutput* out_ = nullptr;
  NodeId source_ = 0;
  // Backtrack working state (stored target-to-source, reversed on emit
  // into path_, the survivor's run).
  std::vector<NodeId> nodes_suffix_;
  std::vector<EdgeId> edges_suffix_;
  std::vector<uint32_t> path_;
  uint32_t cancel_countdown_ = kCancelCheckStride;
  bool stopped_ = false;
};

Result<PathSet> FrontierShortest(const PropertyGraph& g, const RegexPtr& inner,
                                 const PhiSpec& spec,
                                 const EvalLimits& limits,
                                 const ParallelOptions& parallel,
                                 ParallelStats* parallel_stats,
                                 FrontierClosureStats* stats) {
  // Capped at the NFA's size so the product and dist_ never outgrow it;
  // past the cap (Σ | a·Σⁿ blows up) the NFA runs, and the merge's dedup
  // absorbs the paths an ambiguous inner then rebuilds per spelling.
  const Nfa nfa = Nfa::FromRegex(RegexNode::Plus(inner));
  const std::optional<Nfa> dfa = nfa.Determinized(nfa.num_states());
  const Nfa& automaton = dfa.has_value() ? *dfa : nfa;
  const ProductIndex index(g, automaton);

  const size_t n = spec.NumStarts(g.num_nodes());
  const ChunkLayout layout = ThreadPool::PlanFor(n, parallel);
  std::vector<ChunkOutput> outputs(layout.num_chunks);
  ThreadPool::Shared().ParallelFor(
      n, parallel, parallel_stats, [&](size_t chunk, size_t begin, size_t end) {
        ShortestSource bfs(g, automaton, index, limits);
        for (size_t i = begin; i < end; ++i) {
          if (bfs.stopped()) break;
          bfs.Run(spec.Start(i), &outputs[chunk]);
        }
      });
  // Cancellation discards every chunk's (possibly truncated) output.
  if (CancelRequested(limits.cancel)) return EvalCancelled(*limits.cancel);

  PathSet out;
  for (ChunkOutput& chunk : outputs) {
    if (stats != nullptr) {
      stats->states_expanded += chunk.counts.states_expanded;
      stats->paths_reconstructed += chunk.counts.paths_reconstructed;
    }
    const PathList& candidates = chunk.candidates;
    for (size_t c = 0; c < candidates.size(); ++c) {
      const PathRef q = candidates[c];
      const size_t h = candidates.hash_of(c);
      // One probe per candidate while there is room; a full accumulator
      // trips on the first NEW candidate, duplicates never trip.
      if (out.size() < limits.max_paths) {
        out.InsertHashed(q, h);
        continue;
      }
      if (out.ContainsHashed(q, h)) continue;
      if (limits.truncate) return out;
      return BudgetExhausted("max_paths", PathSemantics::kShortest);
    }
  }
  return out;
}

}  // namespace

Result<PathSet> FrontierClosure(const PropertyGraph& g, const RegexPtr& inner,
                                PhiSpec spec, const EvalLimits& limits,
                                const ParallelOptions& parallel,
                                ParallelStats* parallel_stats,
                                FrontierClosureStats* stats) {
  if (!FrontierEligible(inner)) {
    return Status::InvalidArgument(
        "frontier closure requires a closure-free inner regex");
  }
  if (spec.semantics == PathSemantics::kShortest) {
    return FrontierShortest(g, inner, spec, limits, parallel, parallel_stats,
                            stats);
  }
  const Nfa nfa = Nfa::FromRegex(inner);
  const ProductIndex index(g, nfa);
  return FrontierDfs(
      spec.NumStarts(g.num_nodes()),
      [&] { return SegmentWalker(g, nfa, index, spec, limits); },
      spec.semantics, limits, parallel, parallel_stats, stats);
}

Result<PathSet> FrontierClosureOverBase(const PathSet& base, PhiSpec spec,
                                        const EvalLimits& limits,
                                        const ParallelOptions& parallel,
                                        ParallelStats* parallel_stats) {
  const PathSemantics semantics = spec.semantics;
  if (semantics == PathSemantics::kShortest) {
    return Status::InvalidArgument(
        "the frontier engine's base source has no shortest mode");
  }
  // Segments are ϕ0 only: an empty base path re-derives the prefix, and
  // one round 0 rejects fails every concatenation containing it too.
  bool unused_dropped = false;  // round 0's own Seed calls report drops
  const PathFirstIndex index(base.paths(), [&](PathRef p) {
    return Admissible(p, semantics, limits, &unused_dropped);
  });
  return FrontierDfs(
      base.size(), [&] { return BaseSource(base, index, spec, limits); },
      semantics, limits, parallel, parallel_stats, /*stats=*/nullptr);
}

}  // namespace pathalg

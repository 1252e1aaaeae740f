#include "baseline/nfa.h"

#include <map>
#include <set>
#include <unordered_set>

namespace pathalg {

namespace {

/// Thompson construction with explicit ε-transitions.
struct ThompsonNfa {
  struct State {
    std::vector<std::pair<std::string, uint32_t>> labelled;
    std::vector<uint32_t> eps;
  };
  std::vector<State> states;

  uint32_t NewState() {
    states.emplace_back();
    return static_cast<uint32_t>(states.size() - 1);
  }

  /// Builds the fragment for `r`; returns (in, out) states.
  std::pair<uint32_t, uint32_t> Build(const RegexNode& r) {
    switch (r.kind()) {
      case RegexKind::kLabel: {
        uint32_t in = NewState(), out = NewState();
        states[in].labelled.emplace_back(r.label(), out);
        return {in, out};
      }
      case RegexKind::kConcat: {
        auto [lin, lout] = Build(*r.left());
        auto [rin, rout] = Build(*r.right());
        states[lout].eps.push_back(rin);
        return {lin, rout};
      }
      case RegexKind::kUnion: {
        uint32_t in = NewState(), out = NewState();
        auto [lin, lout] = Build(*r.left());
        auto [rin, rout] = Build(*r.right());
        states[in].eps.push_back(lin);
        states[in].eps.push_back(rin);
        states[lout].eps.push_back(out);
        states[rout].eps.push_back(out);
        return {in, out};
      }
      case RegexKind::kPlus: {
        auto [cin, cout] = Build(*r.left());
        states[cout].eps.push_back(cin);  // loop back
        return {cin, cout};
      }
      case RegexKind::kStar: {
        uint32_t in = NewState(), out = NewState();
        auto [cin, cout] = Build(*r.left());
        states[in].eps.push_back(cin);
        states[in].eps.push_back(out);
        states[cout].eps.push_back(cin);
        states[cout].eps.push_back(out);
        return {in, out};
      }
      case RegexKind::kOptional: {
        uint32_t in = NewState(), out = NewState();
        auto [cin, cout] = Build(*r.left());
        states[in].eps.push_back(cin);
        states[in].eps.push_back(out);
        states[cout].eps.push_back(out);
        return {in, out};
      }
    }
    uint32_t s = NewState();
    return {s, s};
  }

  void EpsClosure(uint32_t s, std::vector<bool>* seen) const {
    if ((*seen)[s]) return;
    (*seen)[s] = true;
    for (uint32_t t : states[s].eps) EpsClosure(t, seen);
  }
};

}  // namespace

Nfa Nfa::FromRegex(const RegexPtr& regex) {
  ThompsonNfa t;
  auto [in, out] = t.Build(*regex);

  // ε-eliminate: state s keeps the labelled transitions of every state in
  // its ε-closure; s accepts iff its closure contains `out`.
  Nfa nfa;
  nfa.start_ = in;
  size_t n = t.states.size();
  nfa.accepting_.assign(n, false);
  nfa.transitions_.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    std::vector<bool> closure(n, false);
    t.EpsClosure(s, &closure);
    for (uint32_t c = 0; c < n; ++c) {
      if (!closure[c]) continue;
      if (c == out) nfa.accepting_[s] = true;
      for (const auto& [label, next] : t.states[c].labelled) {
        nfa.transitions_[s].push_back({label, next});
      }
    }
  }
  return nfa;
}

std::optional<Nfa> Nfa::Determinized(size_t max_states) const {
  std::map<std::set<uint32_t>, uint32_t> ids;
  std::vector<std::set<uint32_t>> subsets;
  auto intern = [&](const std::set<uint32_t>& subset) {
    auto [it, inserted] =
        ids.emplace(subset, static_cast<uint32_t>(subsets.size()));
    if (inserted) subsets.push_back(subset);
    return it->second;
  };
  intern({start_});
  Nfa dfa;
  for (size_t i = 0; i < subsets.size(); ++i) {
    if (subsets.size() > max_states) return std::nullopt;
    bool accepting = false;
    std::map<std::string, std::set<uint32_t>> moves;
    for (uint32_t s : subsets[i]) {
      accepting = accepting || accepting_[s];
      for (const Transition& tr : transitions_[s]) {
        moves[tr.label].insert(tr.next);
      }
    }
    dfa.accepting_.push_back(accepting);
    dfa.transitions_.emplace_back();
    for (const auto& [label, next] : moves) {
      dfa.transitions_.back().push_back({label, intern(next)});
    }
  }
  return dfa;
}

bool Nfa::Matches(const std::vector<std::string>& word) const {
  std::unordered_set<uint32_t> current{start_};
  for (const std::string& label : word) {
    std::unordered_set<uint32_t> next;
    for (uint32_t s : current) {
      for (const Transition& tr : transitions_[s]) {
        if (tr.label == label) next.insert(tr.next);
      }
    }
    current = std::move(next);
    if (current.empty()) return false;
  }
  for (uint32_t s : current) {
    if (accepting_[s]) return true;
  }
  return false;
}

}  // namespace pathalg

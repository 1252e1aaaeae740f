#ifndef PATHALG_BASELINE_NFA_H_
#define PATHALG_BASELINE_NFA_H_

/// \file nfa.h
/// Finite automata over edge-label alphabets, for the classical
/// automaton-based RPQ evaluation baseline (§8.2: "automata-based
/// approaches traverse the graph while tracking the states of an automaton
/// constructed from the regular expression"). Built from a regex via
/// Thompson construction followed by ε-elimination, so the evaluator only
/// sees labelled transitions.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "regex/ast.h"

namespace pathalg {

class Nfa {
 public:
  /// Builds an ε-free NFA recognizing exactly the language of `regex`.
  static Nfa FromRegex(const RegexPtr& regex);

  size_t num_states() const { return transitions_.size(); }
  uint32_t start() const { return start_; }
  bool IsAccepting(uint32_t state) const { return accepting_[state]; }

  struct Transition {
    std::string label;
    uint32_t next;
  };
  const std::vector<Transition>& TransitionsFrom(uint32_t state) const {
    return transitions_[state];
  }

  /// Subset construction: the same language with at most one transition
  /// per (state, label), states in discovery order (start = 0). Nullopt
  /// once more than `max_states` subsets are reachable — they can be
  /// exponentially many ((Σ | a·Σⁿ)+ has ~2ⁿ⁺¹) — so the work is bounded.
  std::optional<Nfa> Determinized(size_t max_states) const;

  /// Language membership test for a word of edge labels; used by tests to
  /// cross-check the construction against direct regex matching.
  bool Matches(const std::vector<std::string>& word) const;

 private:
  uint32_t start_ = 0;
  std::vector<bool> accepting_;
  std::vector<std::vector<Transition>> transitions_;
};

}  // namespace pathalg

#endif  // PATHALG_BASELINE_NFA_H_

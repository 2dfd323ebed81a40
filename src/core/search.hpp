// SearchStrategy — the pluggable step-kernel contract every tuning driver
// speaks.
//
// Two drivers speak it: the tuning session's one measurement loop (serial,
// speculative and fault-tolerant runs alike) and the serving front end's
// per-session state machine. Both consume the same inverted-control
// surface — pull a configuration, measure it, push the value back — so that
// surface is a contract and the Nelder–Mead simplex is merely its first
// implementation.
//
// The contract (pinned by tests/core/search_strategy_test.cpp against every
// registered strategy):
//
//  * peek() returns a pointer into the strategy's pending slot — zero-copy,
//    idempotent until the value is reported — or nullptr once the search
//    has finished.
//  * report(v) consumes exactly one live measurement for the pending
//    configuration; each report is one "evaluation" and one trace entry.
//  * frontier() enumerates every configuration the strategy may request
//    before its next planning decision: pending first, snapped, feasible,
//    deduplicated, empty when finished. It is a superset in spirit —
//    entries the trajectory never requests are wasted speculation, and a
//    request outside a stale frontier is a cache miss, never an error.
//  * Every configuration handed out is snapped and feasible for the space.
//  * Strategies draw randomness only from their own seeded generator at
//    planning time, never per-measurement — so the trajectory is a pure
//    function of (options, seed, reported values). Speculation and thread
//    count change *when* measurements happen, never *which* values a
//    deterministic objective yields, keeping traces bit-identical.
//  * Censored measurements (values at or below the configured censoring
//    threshold, substituted by the fault-tolerant driver for exhausted
//    retries) must not satisfy any value-based convergence test: a search
//    fed nothing but penalties runs until its budget, it never "converges"
//    on garbage.
//  * At most max_evaluations live measurements are requested; exceeding
//    budget stops the search with stop_reason "budget".
#pragma once

#include <string>
#include <vector>

#include "core/parameter.hpp"

namespace harmony {

/// One recorded exploration.
struct Measurement {
  Configuration config;
  double performance = 0.0;
  /// True when the value came from history/estimation rather than a live
  /// measurement (training-stage entries).
  bool estimated = false;
  /// True when the measurement exhausted its retries and `performance` is
  /// the policy's censored worst-case penalty, not an observed value.
  bool censored = false;
};

/// Final state of one search run, shared by every strategy.
struct SearchResult {
  Configuration best;       ///< best configuration measured
  double best_value = 0.0;  ///< its performance
  int evaluations = 0;      ///< live measurements consumed
  bool converged = false;   ///< a convergence criterion was met
  /// "perf-spread", "size", "budget", "stall" — the shared stop vocabulary.
  std::string stop_reason;
};

/// Inverted-control step kernel: peek() the configuration to measure, run
/// the system with it, report() the observed performance; repeat until
/// peek() returns nullptr, then read result().
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  /// The configuration to measure next; nullptr when finished. The pointer
  /// refers to the strategy's pending slot — it stays valid (and repeated
  /// calls return it unchanged) until the next report().
  [[nodiscard]] virtual const Configuration* peek() = 0;

  /// Reports the measured performance of the pending configuration. Throws
  /// when no measurement is outstanding.
  virtual void report(double performance) = 0;

  /// The speculation frontier: every configuration the strategy may request
  /// before its next planning decision (pending first, snapped, deduped);
  /// empty when finished.
  [[nodiscard]] virtual std::vector<Configuration> frontier() = 0;

  [[nodiscard]] virtual bool finished() const = 0;
  /// Final after peek() returned nullptr.
  [[nodiscard]] virtual const SearchResult& result() const = 0;
  /// Live measurements consumed so far (== values reported).
  [[nodiscard]] virtual int evaluations() const = 0;
  /// Registered strategy name ("simplex", "ils", "evolutionary").
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace harmony

// Discrete Nelder–Mead simplex search — the Active Harmony tuning kernel.
//
// The classic Nelder–Mead method assumes a well-defined function on a
// continuous space; neither holds here. Following the paper (§2), every
// candidate point is snapped to the nearest feasible grid point before being
// measured, and the measured value stands in for the continuous one. The
// search maximizes performance (the paper's WIPS); internally it minimizes
// the negated value with the standard reflection / expansion / contraction /
// shrink moves.
//
// Two driving styles are provided:
//   * StepwiseSimplex — an inverted-control state machine: the caller pulls
//     the next configuration to measure and pushes the result back. This is
//     what the Harmony server protocol uses: the client application fetches
//     a configuration, runs with it, and reports the observed performance.
//   * SimplexSearch::maximize — the blocking convenience wrapper around it.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/parameter.hpp"
#include "core/search.hpp"

namespace harmony {

struct SimplexOptions {
  double alpha = 1.0;  ///< reflection coefficient
  double gamma = 2.0;  ///< expansion coefficient
  double beta = 0.5;   ///< contraction coefficient
  double sigma = 0.5;  ///< shrink coefficient

  int max_evaluations = 400;  ///< live-measurement budget
  /// Converged when (best-worst)/max(|best|,1e-12) across vertices drops
  /// below this relative spread...
  double perf_rel_tolerance = 0.01;
  /// ...or when the normalized simplex diameter drops below this.
  double size_tolerance = 1e-3;
  /// Abort when this many consecutive moves fail to improve the best vertex
  /// (discrete landscapes can plateau without shrinking to a point).
  int max_stall_moves = 25;
  /// A low value-spread only counts as convergence when the simplex is
  /// spatially smaller than this normalized diameter; otherwise (distinct
  /// grid points sharing a value — common on quantized landscapes) the
  /// kernel shrinks and keeps going, at most `max_plateau_shrinks` times.
  /// <= 0 auto-derives the threshold as 3x the largest normalized grid
  /// step of the space.
  double plateau_diameter = 0.0;
  int max_plateau_shrinks = 3;
  /// When a shrink cannot move any vertex (the grid is too coarse around
  /// the cluster), restart with a unit-step simplex around the best vertex
  /// instead of giving up, at most this many times.
  int max_restarts = 4;
  /// A value at or below this marks its vertex as *censored*: a
  /// fault-tolerant driver substituted a finite worst-case penalty
  /// (RetryPolicy::censored_value) for a measurement whose retries were
  /// exhausted. The penalty is finite, so reflection geometry still pushes
  /// the simplex away from the failed point — but while the worst vertex
  /// is censored the perf-spread convergence test is suspended (a simplex
  /// of penalties must keep moving, never "converge"; with every vertex
  /// censored the spread is zero and would otherwise stop the search on
  /// garbage). Default -inf: no finite value is censored.
  double censored_threshold = -std::numeric_limits<double>::infinity();
};

/// Inverted-control Nelder–Mead: call peek() for the configuration to
/// measure, run the system with it, then submit() the observed performance.
/// peek() returns nullptr once the search has finished (converged, stalled
/// or out of budget); result() is then final. The first — and
/// bit-identically preserved — implementation of the SearchStrategy
/// contract; submit() predates the contract's report() and stays as the
/// primary spelling for direct users.
class StepwiseSimplex : public SearchStrategy {
 public:
  /// `initial_vertices` are snapped and deduplicated; at least two distinct
  /// vertices must remain or construction throws. `seeded_values` may
  /// pre-supply performance for the matching initial vertex (NaN entries
  /// are measured live) — the training stage of §4.2.
  StepwiseSimplex(const ParameterSpace& space, SimplexOptions options,
                  std::vector<Configuration> initial_vertices,
                  std::vector<double> seeded_values = {});

  /// The configuration to measure next; nullptr when finished. The pointer
  /// refers to the machine's pending slot — it stays valid (and repeated
  /// calls return it unchanged) until the next submit(). The drivers poll
  /// this every step. (The old copying next() shim is gone; callers peek.)
  [[nodiscard]] const Configuration* peek() override;

  /// Every configuration the state machine may request before its next
  /// planning decision, from the current state: the pending configuration
  /// first, then — depending on the state — the reflection's expansion and
  /// both contractions, the remaining shrink vertices, and the unit-step
  /// restart vertices. All snapped and deduplicated. This is the
  /// speculation frontier: a driver that pre-measures it can serve most
  /// upcoming peek()s from a cache. A superset in spirit ("may", not
  /// "will"): entries that the trajectory never requests are wasted
  /// measurements, and a request outside the frontier (possible only after
  /// the next planning decision) is simply a cache miss — never an error.
  /// Empty when finished.
  [[nodiscard]] std::vector<Configuration> frontier() override;

  /// Reports the measured performance of the configuration last returned by
  /// peek(). Throws when no measurement is outstanding.
  void submit(double performance);
  /// SearchStrategy spelling of submit().
  void report(double performance) override { submit(performance); }

  [[nodiscard]] bool finished() const noexcept override {
    return state_ == State::kDone;
  }
  [[nodiscard]] const SearchResult& result() const override;
  [[nodiscard]] int evaluations() const noexcept override { return evals_; }
  [[nodiscard]] std::string name() const override { return "simplex"; }

 private:
  enum class State {
    kInit,        // measuring initial vertices
    kPlan,        // decide the next move from a sorted simplex
    kReflect,     // awaiting f(xr)
    kExpand,      // awaiting f(xe)
    kContract,    // awaiting f(xc)
    kShrink,      // awaiting shrink-vertex measurements
    kReseed,      // awaiting restart-vertex measurements
    kDone,
  };

  struct Vertex {
    Configuration config;
    double value;
  };

  void record(const Configuration& c, double value);
  void sort_vertices();
  void plan();                       // kPlan: choose move, set pending
  void accept(const Configuration& config, double value);
  void begin_shrink();
  void continue_shrink();
  void begin_reseed();
  void continue_reseed();
  void finish(bool converged, std::string reason);
  [[nodiscard]] Configuration affine(double t) const;
  [[nodiscard]] double simplex_diameter() const;
  void append_shrink_targets(std::vector<Configuration>& out,
                             std::size_t from) const;
  void append_reseed_targets(std::vector<Configuration>& out,
                             std::size_t from) const;

  const ParameterSpace& space_;
  SimplexOptions opts_;

  // initial phase
  std::vector<Configuration> init_configs_;
  std::vector<double> init_seeded_;
  std::size_t init_index_ = 0;

  std::vector<Vertex> verts_;
  State state_ = State::kInit;
  std::optional<Configuration> pending_;  // outstanding measurement
  bool awaiting_submit_ = false;

  // move context (captured when the move was planned)
  Configuration centroid_;
  Configuration worst_config_;
  Configuration xr_;
  double fr_ = 0.0;
  double best_value_ = 0.0;
  double second_worst_value_ = 0.0;
  double worst_value_ = 0.0;
  double prev_best_ = 0.0;
  bool prev_best_initialized_ = false;
  std::size_t shrink_index_ = 0;  // next vertex to shrink (best is kept)
  bool shrink_moved_any_ = false;
  std::size_t reseed_index_ = 0;
  bool reseed_moved_any_ = false;
  int restarts_ = 0;

  int evals_ = 0;
  int stall_ = 0;
  int plateau_shrinks_ = 0;
  SearchResult result_;
};

/// Blocking convenience wrapper.
class SimplexSearch {
 public:
  /// Evaluator measures a snapped configuration (higher is better).
  using Evaluator = std::function<double(const Configuration&)>;

  SimplexSearch(const ParameterSpace& space, SimplexOptions options);

  /// Runs StepwiseSimplex to completion with the given evaluator.
  [[nodiscard]] SearchResult maximize(
      const Evaluator& evaluate, std::vector<Configuration> initial_vertices,
      const std::vector<double>& seeded_values = {});

 private:
  const ParameterSpace& space_;
  SimplexOptions opts_;
};

}  // namespace harmony

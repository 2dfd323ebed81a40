// TuningSession — the Adaptation Controller of the Harmony server.
//
// Drives a search kernel (the simplex by default; any registered
// SearchStrategy via TuningOptions::search) against a live Objective,
// records every
// exploration (one "iteration" per measured configuration, matching the
// paper's reporting unit), and supports the paper's improvements:
//   * pluggable initial-simplex strategy (§4.1),
//   * warm start from historical measurements, optionally substituting
//     triangulation estimates for the training measurements (§4.2/§4.3),
//   * tuning a top-n sub-space chosen by the prioritizing tool (§3).
//
// plan_warm_start() is the one place a session's starting point is chosen;
// the in-process session, HarmonyServer and the wire protocol's
// ServerSession all build their kernel from it.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "core/parameter.hpp"
#include "core/search_kernels.hpp"
#include "core/simplex.hpp"
#include "core/strategies.hpp"

namespace harmony {

struct TuningOptions {
  SimplexOptions simplex;
  /// Which search kernel drives the session ("simplex" by default) plus its
  /// per-kernel knobs. The shared knobs — budget, censoring threshold — live
  /// in `simplex` above and apply to every kernel.
  SearchSpec search;
  /// Strategy used when no warm-start seeds are provided. Defaults to the
  /// paper's improved even-spread refinement; benches switch to
  /// ExtremeCornerStrategy to reproduce the original behaviour.
  std::shared_ptr<const InitialSimplexStrategy> strategy =
      std::make_shared<EvenSpreadStrategy>();
  /// Speculative frontier evaluation: at every kernel step the session
  /// measures the whole candidate frontier (StepwiseSimplex::frontier) in
  /// one Objective::measure_batch call — fanning out across the thread pool
  /// when the objective supports it — and parks the values the trajectory
  /// does not consume immediately in a configuration-keyed cache for later
  /// steps. The search trajectory is bit-identical to the serial kernel for
  /// deterministic objectives: speculation changes *when* measurements
  /// happen, never *which* values the search consumes. Stochastic
  /// objectives draw their noise in frontier order instead of trajectory
  /// order, so their traces differ from the serial kernel (but stay
  /// thread-count invariant under the measure_batch contract).
  bool speculative = false;
  /// Fault tolerance: when `retry.enabled()`, measurements go through the
  /// fallible path (Objective::try_measure / try_measure_batch) with the
  /// policy's retry rounds, exhausted measurements enter the kernel as the
  /// censored penalty (flagged in the trace), and the simplex suspends
  /// perf-spread convergence while its worst vertex is censored (the
  /// policy's censored_value is injected as SimplexOptions::
  /// censored_threshold unless one was set explicitly). The default
  /// (disabled) policy runs the legacy infallible path bit-exactly.
  RetryPolicy retry;
};

/// Accounting of one speculative run (zeroes when speculation is off).
struct SpeculationStats {
  std::size_t batches = 0;     ///< frontier measure_batch calls issued
  std::size_t measured = 0;    ///< configurations measured live
  std::size_t consumed = 0;    ///< values submitted to the kernel
  std::size_t cache_hits = 0;  ///< submits served without a new batch
  std::size_t wasted = 0;      ///< measured configurations never consumed
  /// Fraction of kernel steps served from already-measured values.
  [[nodiscard]] double hit_rate() const noexcept {
    return consumed == 0 ? 0.0
                         : static_cast<double>(cache_hits) /
                               static_cast<double>(consumed);
  }
  /// Fraction of live measurements the trajectory never consumed.
  [[nodiscard]] double waste_rate() const noexcept {
    return measured == 0 ? 0.0
                         : static_cast<double>(wasted) /
                               static_cast<double>(measured);
  }
};

struct TuningResult {
  std::vector<Measurement> trace;  ///< consumed explorations, in order
  Configuration best_config;
  double best_performance = 0.0;
  int evaluations = 0;   ///< live measurements (== trace.size())
  bool converged = false;
  std::string stop_reason;
  SpeculationStats speculation;  ///< frontier accounting (speculative runs)
  RetryStats retry;  ///< fault-path accounting (zeroes when retry disabled)
};

/// What a session's kernel starts from (§4.2).
struct WarmStartPlan {
  std::vector<Configuration> vertices;  ///< initial vertices, seeds first
  /// Per-vertex value the kernel takes instead of measuring (NaN = measure
  /// live); empty for a cold start.
  std::vector<double> values;
  /// The prior measurements the plan was made from, borrowed: what a
  /// model-seeding kernel learns from (it skips the censored ones).
  std::span<const Measurement> history;
};

/// Plans a session's start from prior measurements the caller already
/// holds — an experience record's, or a user's own. With none, the cold
/// start: `cold`'s vertices around `start`. Otherwise:
///   * seeds: the n+1 best distinct configurations after snapping, best
///     first, earlier first on ties (two recorded points on one grid point
///     are one seed, the better one); SeededStrategy fills a short list;
///   * values: with `use_recorded_values`, each seed vertex carries its
///     recorded performance; every other vertex is measured live;
///   * history: every measurement passed in.
[[nodiscard]] WarmStartPlan plan_warm_start(const ParameterSpace& space,
                                            const InitialSimplexStrategy& cold,
                                            const Configuration& start,
                                            std::span<const Measurement> prior,
                                            bool use_recorded_values);

class TuningSession {
 public:
  /// The objective must outlive the session.
  TuningSession(const ParameterSpace& space, Objective& objective,
                TuningOptions options = {});

  /// Warm start (training stage): the initial simplex is seeded from the
  /// best configurations of this history (plan_warm_start) — typically the
  /// measurements recorded for the workload the data analyzer classified.
  /// When `use_recorded_values` is true, their recorded performances are
  /// fed to the kernel instead of re-measuring (the paper's "save time by
  /// not retrying those configurations again"); otherwise the seeds are
  /// re-measured live.
  ///
  /// When `estimate_missing` is also true, initial vertices that the
  /// history does not cover (the filler vertices a short history needs) get
  /// their value from the §4.3 triangulation estimator fitted over the full
  /// history, instead of a live measurement — the paper's answer to "what
  /// to do when the configurations needed for training are not available".
  void seed(const std::vector<Measurement>& history, bool use_recorded_values,
            bool estimate_missing = false);

  /// Starting configuration for strategies that use it (defaults to the
  /// space's default configuration).
  void set_start(Configuration start);

  /// Runs the tuning process to convergence or budget exhaustion. One
  /// measurement loop serves every mode: without speculation each step
  /// measures the pending configuration alone (a frontier of width 1);
  /// with it, a miss measures the kernel's whole frontier in one batch.
  /// A disabled retry policy measures through the infallible path.
  [[nodiscard]] TuningResult run();

 private:
  const ParameterSpace& space_;
  Objective& objective_;
  TuningOptions opts_;
  Configuration start_;
  std::vector<Measurement> seed_history_;
  bool use_recorded_values_ = false;
  bool estimate_missing_ = false;
};

/// Summary statistics over a tuning trace, matching the paper's Tables 1-2
/// columns. `final_best` is the best performance the run reached.
struct TraceMetrics {
  /// First iteration (1-based) whose measurement reaches
  /// `convergence_fraction` of the final best — "convergence time".
  int convergence_iteration = 0;
  double best = 0.0;
  /// Worst performance seen while tuning (Table 1's oscillation indicator).
  double worst = 0.0;
  /// Mean/stddev of the first `initial_window` live measurements
  /// (Table 2's "initial performance oscillation").
  double initial_mean = 0.0;
  double initial_stddev = 0.0;
  /// Iterations with performance below `bad_fraction` of the final best.
  int bad_iterations = 0;
};

struct TraceMetricsOptions {
  double convergence_fraction = 0.95;
  double bad_fraction = 0.80;
  int initial_window = 20;
};

[[nodiscard]] TraceMetrics analyze_trace(const std::vector<Measurement>& trace,
                                         TraceMetricsOptions options = {});

}  // namespace harmony

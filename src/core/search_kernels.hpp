// Alternative search strategies behind the SearchStrategy contract, plus the
// registry/factory that the session, the serving stack and the tools use to
// select a kernel by name.
//
// Both kernels here share one queue-driven skeleton (QueueSearch): a strategy
// plans a *round* of candidate configurations, the contract machinery feeds
// them out one peek()/report() step at a time, repeat configurations are
// served from a memo without spending budget, and when the queue drains the
// strategy plans the next round. All randomness is drawn at planning time
// from a seeded generator, so a trajectory is a pure function of
// (options, seed, reported values) — exactly the determinism the speculation
// and serve_batch drivers rely on.
//
//  * IteratedLocalSearch — ParamILS-style (PAPERS.md): a first-improvement
//    one-exchange sweep over geometric per-dimension strides descends to a
//    local optimum; the incumbent is then perturbed (a bounded "kick", or a
//    full random restart with small probability) and the sweep repeats until
//    the incumbent stalls or the budget runs out.
//  * EvolutionarySearch — generational GA over the snapped grid: k-tournament
//    parent selection, uniform crossover, per-gene mutation to a random grid
//    value, elite carry-over; the initial population can be seeded by the
//    cheap PerformanceEstimator model ranked over prior-run history (§4 of
//    the paper applied to a population instead of a simplex).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/parameter.hpp"
#include "core/search.hpp"
#include "core/simplex.hpp"
#include "util/rng.hpp"

namespace harmony {

/// Knobs for IteratedLocalSearch. Budget and censoring come from the shared
/// SimplexOptions (max_evaluations, censored_threshold) so the retry and CLI
/// plumbing works unchanged for every kernel.
struct IlsOptions {
  std::uint64_t seed = 2004;       ///< planning-time RNG seed
  int kick_strength = 2;           ///< dims re-drawn when perturbing
  double restart_probability = 0.15;  ///< full random restart instead of kick
  int max_stall_rounds = 3;        ///< local optima without incumbent gain
};

/// Knobs for EvolutionarySearch.
struct EvolutionOptions {
  std::uint64_t seed = 2004;        ///< planning-time RNG seed
  int population = 12;              ///< generation size
  int elites = 2;                   ///< best members carried unchanged
  int tournament_k = 3;             ///< parents drawn per selection
  double crossover_rate = 0.9;      ///< uniform crossover vs clone
  double mutation_rate = 0.15;      ///< per-gene random-grid-value chance
  int max_stall_generations = 4;    ///< generations without best-value gain
  bool model_seeding = true;        ///< rank initial fill via the estimator
  int seeding_pool = 64;            ///< random candidates the model ranks
};

/// Which kernel a session runs, plus its per-kernel knobs. The shared knobs
/// (budget, censoring threshold, the simplex move coefficients) stay in
/// SimplexOptions.
struct SearchSpec {
  std::string kernel = "simplex";  ///< "simplex", "ils" or "evolutionary"
  IlsOptions ils;
  EvolutionOptions evolution;
};

/// Registered kernel names, in registry order: {"simplex", "ils",
/// "evolutionary"}.
[[nodiscard]] const std::vector<std::string>& search_kernel_names();
/// True when `name` is a registered kernel.
[[nodiscard]] bool is_search_kernel(const std::string& name);

/// Builds the kernel named by `spec.kernel`. `initial_vertices` seed every
/// strategy (the simplex verbatim; the others as their first round /
/// generation); `seeded_values` optionally pre-supply performance for the
/// matching vertex (NaN = measure live), and `history` carries prior-run
/// measurements for model seeding (censored ones are skipped: they are
/// penalties, not observations). Throws harmony::Error on an unknown kernel
/// name.
[[nodiscard]] std::unique_ptr<SearchStrategy> make_search_kernel(
    const SearchSpec& spec, const ParameterSpace& space,
    const SimplexOptions& common, std::vector<Configuration> initial_vertices,
    std::vector<double> seeded_values = {},
    std::span<const Measurement> history = {});

/// Shared skeleton for round-planning strategies: a queue of planned
/// candidates is consumed one peek()/report() step at a time; configurations
/// measured before (or pre-seeded) are replayed from a memo without spending
/// budget, and a drained queue triggers the subclass's next planning
/// decision. Subclasses implement plan-time logic only and inherit the whole
/// contract surface.
class QueueSearch : public SearchStrategy {
 public:
  [[nodiscard]] const Configuration* peek() override;
  void report(double performance) override;
  [[nodiscard]] std::vector<Configuration> frontier() override;
  [[nodiscard]] bool finished() const override { return done_; }
  [[nodiscard]] const SearchResult& result() const override;
  [[nodiscard]] int evaluations() const override { return evals_; }

 protected:
  QueueSearch(const ParameterSpace& space, SimplexOptions common,
              std::uint64_t seed);

  /// Called once per delivered candidate, live or memoized, in queue order.
  /// May rebuild the queue (first-improvement acceptance).
  virtual void on_candidate(const Configuration& config, double value) = 0;
  /// Called when the queue drains; must either plan a new round (push) or
  /// finish(). The base guards against planning loops that never issue a
  /// live measurement (exhausted spaces) by finishing with "stall".
  virtual void round_complete() = 0;

  /// Snaps and enqueues a candidate; duplicates already queued this round
  /// are dropped. Returns true when enqueued.
  bool push(Configuration config);
  void clear_queue();
  void finish(std::string reason, bool converged);
  /// Memoized value for a snapped configuration, when present.
  [[nodiscard]] const double* lookup(const Configuration& config) const;
  [[nodiscard]] bool censored(double value) const {
    return value <= common_.censored_threshold;
  }
  [[nodiscard]] bool has_best() const { return has_best_; }
  [[nodiscard]] const Configuration& best_config() const { return best_; }
  [[nodiscard]] double best_value() const { return best_value_; }
  /// Pre-seeds the memo (used for seeded initial-vertex values).
  void memoize(const Configuration& snapped, double value);

  const ParameterSpace& space_;
  SimplexOptions common_;
  Rng rng_;

 private:
  void note(const Configuration& config, double value);

  std::vector<Configuration> queue_;
  std::size_t qpos_ = 0;
  Configuration pending_;
  bool awaiting_ = false;
  std::map<Configuration, double> known_;  // memo: snapped config -> value

  Configuration best_;
  double best_value_ = 0.0;
  bool has_best_ = false;

  int evals_ = 0;
  int evals_at_round_ = 0;  // live count when the current round was planned
  int dry_rounds_ = 0;      // consecutive rounds with no live measurement
  bool done_ = false;
  SearchResult result_;
};

/// ParamILS-style iterated local search; see the header comment.
class IteratedLocalSearch final : public QueueSearch {
 public:
  IteratedLocalSearch(const ParameterSpace& space, SimplexOptions common,
                      IlsOptions options,
                      std::vector<Configuration> initial_vertices,
                      std::vector<double> seeded_values = {});

  [[nodiscard]] std::string name() const override { return "ils"; }

 private:
  enum class Phase { kInit, kStart, kSweep };

  void on_candidate(const Configuration& config, double value) override;
  void round_complete() override;
  void begin_sweep();
  void perturb();

  IlsOptions opts_;
  Phase phase_ = Phase::kInit;
  Configuration current_;
  double current_value_ = 0.0;
  Configuration incumbent_;
  double incumbent_value_ = 0.0;
  bool has_incumbent_ = false;
  int stall_ = 0;
};

/// Generational evolutionary search; see the header comment.
class EvolutionarySearch final : public QueueSearch {
 public:
  EvolutionarySearch(
      const ParameterSpace& space, SimplexOptions common,
      EvolutionOptions options, std::vector<Configuration> initial_vertices,
      std::vector<double> seeded_values = {},
      std::span<const Measurement> history = {});

  [[nodiscard]] std::string name() const override { return "evolutionary"; }

 private:
  void on_candidate(const Configuration& config, double value) override;
  void round_complete() override;
  void breed();
  [[nodiscard]] const Configuration& select_parent(
      const std::vector<std::pair<Configuration, double>>& ranked);

  EvolutionOptions opts_;
  std::vector<Configuration> population_;
  double generation_best_ = 0.0;
  bool has_generation_best_ = false;
  int stall_ = 0;
};

}  // namespace harmony

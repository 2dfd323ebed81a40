#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "core/estimator.hpp"
#include "core/parallel_eval.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace harmony {

namespace {

/// Simplex options the kernel actually runs with: a retry-enabled session
/// marks the policy's censored penalty as the censoring threshold unless
/// the caller pinned one explicitly.
SimplexOptions effective_simplex_options(const TuningOptions& opts) {
  SimplexOptions so = opts.simplex;
  if (opts.retry.enabled() &&
      so.censored_threshold == -std::numeric_limits<double>::infinity()) {
    so.censored_threshold = opts.retry.censored_value;
  }
  return so;
}

/// Where the driver's values come from. At width 1 (speculation off) the
/// pending configuration is measured alone and its value handed straight
/// back: no cache, no hashing. Wider, a miss measures the kernel's whole
/// frontier in one batch and parks every value in a configuration-keyed
/// cache that later steps are served from. An entry is "consumed" once the
/// trajectory takes its value — entries that never are were wasted
/// speculation.
class Frontier {
 public:
  Frontier(ParallelEvaluator& evaluator, bool speculative, std::size_t budget,
           SpeculationStats& stats)
      : evaluator_(evaluator),
        speculative_(speculative),
        budget_(budget),
        stats_(stats) {
    if (speculative_) cache_.reserve(4 * budget_);
  }

  /// The value of the kernel's pending configuration; `censored` is set
  /// when it is the retry policy's penalty rather than an observation.
  double take(SearchStrategy& kernel, const Configuration& pending,
              bool& censored) {
    if (!speculative_) return evaluator_.evaluate_one(pending, censored);
    auto it = cache_.find(pending);
    if (it == cache_.end()) {
      measure(kernel);
      it = cache_.find(pending);
    } else {
      ++stats_.cache_hits;
    }
    it->second.consumed = true;
    ++stats_.consumed;
    censored = it->second.censored;
    return it->second.value;
  }

  /// Counts the measured values the trajectory never consumed.
  void close() {
    for (const auto& [config, entry] : cache_) {
      if (!entry.consumed) ++stats_.wasted;
    }
  }

 private:
  struct CacheEntry {
    double value = 0.0;
    bool consumed = false;
    bool censored = false;
  };

  /// Miss: measures the frontier's uncached configurations in one batch.
  /// The pending configuration comes first, so it is always covered even
  /// after the waste bound truncates the tail.
  void measure(SearchStrategy& kernel) {
    std::vector<Configuration> frontier = kernel.frontier();
    to_measure_.clear();
    to_measure_.reserve(frontier.size());
    for (Configuration& f : frontier) {
      if (cache_.find(f) == cache_.end()) to_measure_.push_back(std::move(f));
    }
    // The kernel asks for at most budget - evaluations more values;
    // measuring beyond that bound could only ever be waste.
    const auto evals = static_cast<std::size_t>(kernel.evaluations());
    const std::size_t remaining = budget_ > evals ? budget_ - evals : 1;
    if (to_measure_.size() > remaining) to_measure_.resize(remaining);
    values_.resize(to_measure_.size());
    std::vector<std::uint8_t>* const censored =
        evaluator_.policy().enabled() ? &censored_ : nullptr;
    evaluator_.evaluate_into(to_measure_, values_, censored);
    ++stats_.batches;
    stats_.measured += to_measure_.size();
    for (std::size_t i = 0; i < to_measure_.size(); ++i) {
      cache_.emplace(std::move(to_measure_[i]),
                     CacheEntry{values_[i], false,
                                censored != nullptr && censored_[i] != 0});
    }
  }

  ParallelEvaluator& evaluator_;
  const bool speculative_;
  const std::size_t budget_;
  SpeculationStats& stats_;
  std::unordered_map<Configuration, CacheEntry, ConfigurationHash> cache_;
  std::vector<Configuration> to_measure_;
  std::vector<double> values_;
  std::vector<std::uint8_t> censored_;
};

}  // namespace

WarmStartPlan plan_warm_start(const ParameterSpace& space,
                              const InitialSimplexStrategy& cold,
                              const Configuration& start,
                              std::span<const Measurement> prior,
                              bool use_recorded_values) {
  WarmStartPlan plan;
  if (prior.empty()) {
    plan.vertices = cold.vertices(space, start);
    return plan;
  }
  plan.history = prior;
  std::vector<std::size_t> order(prior.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return prior[a].performance > prior[b].performance;
                   });
  // Distinctness is judged after snapping: the kernel only ever sees grid
  // points, and two recorded points on one grid point must not take two
  // seed slots (nor shift the next seed's value onto the wrong vertex).
  std::vector<Configuration> seeds;
  std::vector<double> recorded;
  const std::size_t want = space.size() + 1;
  for (const std::size_t i : order) {
    Configuration c = space.snap(prior[i].config);
    if (std::find(seeds.begin(), seeds.end(), c) != seeds.end()) continue;
    seeds.push_back(std::move(c));
    recorded.push_back(prior[i].performance);
    if (seeds.size() == want) break;
  }
  plan.vertices = SeededStrategy(seeds).vertices(space, start);
  plan.values.assign(plan.vertices.size(),
                     std::numeric_limits<double>::quiet_NaN());
  if (use_recorded_values) {
    // SeededStrategy keeps the seeds in front; a seed its re-snap moved
    // (dynamic bounds) is measured live rather than credited a value that
    // belongs to another point.
    for (std::size_t i = 0; i < seeds.size() && i < plan.vertices.size();
         ++i) {
      if (plan.vertices[i] == seeds[i]) plan.values[i] = recorded[i];
    }
  }
  return plan;
}

TuningSession::TuningSession(const ParameterSpace& space, Objective& objective,
                             TuningOptions options)
    : space_(space), objective_(objective), opts_(std::move(options)) {
  HARMONY_REQUIRE(!space_.empty(), "empty parameter space");
  HARMONY_REQUIRE(opts_.strategy != nullptr, "null initial-simplex strategy");
  start_ = space_.defaults();
}

void TuningSession::set_start(Configuration start) {
  start_ = space_.snap(std::move(start));
}

void TuningSession::seed(const std::vector<Measurement>& history,
                         bool use_recorded_values, bool estimate_missing) {
  seed_history_ = history;
  use_recorded_values_ = use_recorded_values;
  estimate_missing_ = estimate_missing && history.size() >= 2;
}

TuningResult TuningSession::run() {
  WarmStartPlan plan = plan_warm_start(space_, *opts_.strategy, start_,
                                       seed_history_, use_recorded_values_);
  if (estimate_missing_) {
    // Fill the vertices without a value by triangulation over the history
    // (§4.3) instead of spending live measurements on them.
    PerformanceEstimator estimator(space_);
    estimator.add_all(seed_history_);
    for (std::size_t i = 0; i < plan.values.size(); ++i) {
      if (std::isnan(plan.values[i])) {
        plan.values[i] = estimator.estimate(plan.vertices[i]).value;
      }
    }
  }
  const std::unique_ptr<SearchStrategy> kernel = make_search_kernel(
      opts_.search, space_, effective_simplex_options(opts_),
      std::move(plan.vertices), std::move(plan.values), plan.history);

  // The one measurement loop: pull a configuration, take its value from
  // the frontier, push it back. Every consumed value is one trace entry.
  const auto budget = static_cast<std::size_t>(opts_.simplex.max_evaluations);
  TuningResult out;
  out.trace.reserve(budget);
  ParallelEvaluator evaluator(objective_, opts_.retry);
  Frontier frontier(evaluator, opts_.speculative, budget, out.speculation);
  bool censored = false;
  while (const Configuration* c = kernel->peek()) {
    const double v = frontier.take(*kernel, *c, censored);
    out.trace.push_back({*c, v, /*estimated=*/false, censored});
    kernel->report(v);
  }
  frontier.close();
  out.retry = evaluator.retry_stats();

  const SearchResult& sr = kernel->result();
  out.best_config = sr.best;
  out.best_performance = sr.best_value;
  out.evaluations = sr.evaluations;
  out.converged = sr.converged;
  out.stop_reason = sr.stop_reason;
  return out;
}

TraceMetrics analyze_trace(const std::vector<Measurement>& trace,
                           TraceMetricsOptions options) {
  TraceMetrics m;
  if (trace.empty()) return m;

  double best = -std::numeric_limits<double>::infinity();
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& s : trace) {
    best = std::max(best, s.performance);
    worst = std::min(worst, s.performance);
  }
  m.best = best;
  m.worst = worst;

  const double threshold = options.convergence_fraction * best;
  m.convergence_iteration = static_cast<int>(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].performance >= threshold) {
      m.convergence_iteration = static_cast<int>(i) + 1;
      break;
    }
  }

  RunningStats initial;
  const auto window = static_cast<std::size_t>(
      std::max(1, options.initial_window));
  for (std::size_t i = 0; i < trace.size() && i < window; ++i) {
    initial.add(trace[i].performance);
  }
  m.initial_mean = initial.mean();
  m.initial_stddev = initial.stddev();

  const double bad = options.bad_fraction * best;
  for (const auto& s : trace) {
    if (s.performance < bad) ++m.bad_iterations;
  }
  return m;
}

}  // namespace harmony

#include "core/search_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "core/estimator.hpp"
#include "util/error.hpp"

namespace harmony {

namespace {

// Rounds with no live measurement tolerated before a planner is declared
// exhausted (every candidate it can think of is memoized — tiny or fully
// explored spaces). Without this guard a memo-saturated kernel would plan
// forever without ever touching its budget.
constexpr int kMaxDryRounds = 32;

}  // namespace

// ---------------------------------------------------------------------------
// QueueSearch
// ---------------------------------------------------------------------------

QueueSearch::QueueSearch(const ParameterSpace& space, SimplexOptions common,
                         std::uint64_t seed)
    : space_(space), common_(common), rng_(seed), best_(space.defaults()) {
  HARMONY_REQUIRE(!space_.empty(), "search space is empty");
  best_value_ = -std::numeric_limits<double>::infinity();
}

void QueueSearch::note(const Configuration& config, double value) {
  if (!has_best_ || value > best_value_) {
    best_ = config;
    best_value_ = value;
    has_best_ = true;
  }
}

void QueueSearch::memoize(const Configuration& snapped, double value) {
  known_.insert_or_assign(snapped, value);
}

bool QueueSearch::push(Configuration config) {
  config = space_.snap(std::move(config));
  for (std::size_t i = qpos_; i < queue_.size(); ++i) {
    if (queue_[i] == config) return false;
  }
  queue_.push_back(std::move(config));
  return true;
}

void QueueSearch::clear_queue() {
  queue_.clear();
  qpos_ = 0;
}

void QueueSearch::finish(std::string reason, bool converged) {
  result_.best = best_;
  result_.best_value = has_best_ ? best_value_ : 0.0;
  result_.evaluations = evals_;
  result_.converged = converged;
  result_.stop_reason = std::move(reason);
  done_ = true;
  clear_queue();
}

const double* QueueSearch::lookup(const Configuration& config) const {
  auto it = known_.find(config);
  return it == known_.end() ? nullptr : &it->second;
}

const Configuration* QueueSearch::peek() {
  if (done_) return nullptr;
  if (awaiting_) return &pending_;
  for (;;) {
    if (done_) return nullptr;
    if (qpos_ >= queue_.size()) {
      // Round drained: account the dry-round guard, then let the subclass
      // plan (or finish). round_complete() may rebuild the queue.
      if (evals_ == evals_at_round_) {
        if (++dry_rounds_ > kMaxDryRounds) {
          finish("stall", has_best_);
          return nullptr;
        }
      } else {
        dry_rounds_ = 0;
      }
      evals_at_round_ = evals_;
      clear_queue();
      round_complete();
      if (done_) return nullptr;
      continue;
    }
    const Configuration& c = queue_[qpos_];
    if (const double* v = lookup(c)) {
      // Known configuration: replay from the memo, no budget spent.
      const double value = *v;
      const Configuration config = c;  // on_candidate may rebuild the queue
      note(config, value);
      ++qpos_;
      on_candidate(config, value);
      continue;
    }
    if (evals_ >= common_.max_evaluations) {
      finish("budget", false);
      return nullptr;
    }
    pending_ = c;
    awaiting_ = true;
    return &pending_;
  }
}

void QueueSearch::report(double performance) {
  HARMONY_REQUIRE(awaiting_, "report() with no measurement outstanding");
  awaiting_ = false;
  ++evals_;
  known_.insert_or_assign(pending_, performance);
  note(pending_, performance);
  ++qpos_;
  on_candidate(pending_, performance);
}

std::vector<Configuration> QueueSearch::frontier() {
  std::vector<Configuration> out;
  const Configuration* p = peek();
  if (p == nullptr) return out;
  out.push_back(*p);
  // The rest of the round, minus memoized entries (they will never be
  // requested live) and duplicates.
  for (std::size_t i = qpos_ + 1; i < queue_.size(); ++i) {
    const Configuration& c = queue_[i];
    if (lookup(c) != nullptr) continue;
    if (std::find(out.begin(), out.end(), c) != out.end()) continue;
    out.push_back(c);
  }
  return out;
}

const SearchResult& QueueSearch::result() const {
  HARMONY_REQUIRE(done_, "result() before the search finished");
  return result_;
}

// ---------------------------------------------------------------------------
// IteratedLocalSearch
// ---------------------------------------------------------------------------

IteratedLocalSearch::IteratedLocalSearch(
    const ParameterSpace& space, SimplexOptions common, IlsOptions options,
    std::vector<Configuration> initial_vertices,
    std::vector<double> seeded_values)
    : QueueSearch(space, common, options.seed), opts_(options) {
  HARMONY_REQUIRE(!initial_vertices.empty(),
                  "IteratedLocalSearch needs at least one initial vertex");
  HARMONY_REQUIRE(opts_.kick_strength >= 1, "kick_strength must be >= 1");
  HARMONY_REQUIRE(opts_.max_stall_rounds >= 1,
                  "max_stall_rounds must be >= 1");
  for (std::size_t i = 0; i < initial_vertices.size(); ++i) {
    Configuration snapped = space_.snap(initial_vertices[i]);
    if (i < seeded_values.size() && !std::isnan(seeded_values[i])) {
      memoize(snapped, seeded_values[i]);
    }
    push(std::move(snapped));
  }
}

void IteratedLocalSearch::on_candidate(const Configuration& config,
                                       double value) {
  switch (phase_) {
    case Phase::kInit:
      break;  // round_complete picks the best starting point
    case Phase::kStart:
      current_ = config;
      current_value_ = value;
      break;
    case Phase::kSweep:
      if (value > current_value_) {
        // First-improvement acceptance: move immediately and restart the
        // sweep around the new point.
        current_ = config;
        current_value_ = value;
        begin_sweep();
      }
      break;
  }
}

void IteratedLocalSearch::round_complete() {
  switch (phase_) {
    case Phase::kInit:
      current_ = best_config();
      current_value_ = best_value();
      incumbent_ = current_;
      incumbent_value_ = current_value_;
      has_incumbent_ = true;
      phase_ = Phase::kSweep;
      begin_sweep();
      return;
    case Phase::kStart:
      phase_ = Phase::kSweep;
      begin_sweep();
      return;
    case Phase::kSweep:
      // Sweep drained without improvement: current_ is a local optimum.
      if (!has_incumbent_ || current_value_ > incumbent_value_) {
        incumbent_ = current_;
        incumbent_value_ = current_value_;
        has_incumbent_ = true;
        stall_ = 0;
      } else {
        ++stall_;
      }
      // A censored incumbent is a substituted penalty, not a measurement —
      // never "converge" on it; keep perturbing until the budget runs out.
      if (stall_ >= opts_.max_stall_rounds && !censored(incumbent_value_)) {
        finish("stall", true);
        return;
      }
      perturb();
      return;
  }
}

void IteratedLocalSearch::begin_sweep() {
  clear_queue();
  // One-exchange neighborhood with geometric strides: ±1, ±2, ±4, ... grid
  // steps per dimension, clipped by snapping. Visit order is randomized at
  // planning time (the only RNG use in a sweep).
  std::vector<Configuration> neighbors;
  for (std::size_t d = 0; d < space_.size(); ++d) {
    const ParameterDef& def = space_.param(d);
    if (def.step <= 0.0) continue;
    for (int dir : {+1, -1}) {
      Configuration prev;
      const std::uint64_t grid = std::max<std::uint64_t>(def.grid_size(), 1);
      for (std::uint64_t stride = 1; stride < grid * 2; stride *= 2) {
        Configuration cand = current_;
        cand[d] += dir * static_cast<double>(stride) * def.step;
        cand = space_.snap(std::move(cand));
        if (cand == prev) break;  // clamped: further strides are identical
        prev = cand;
        if (cand == current_) continue;
        neighbors.push_back(std::move(cand));
      }
    }
  }
  rng_.shuffle(neighbors);
  for (Configuration& n : neighbors) push(std::move(n));
}

void IteratedLocalSearch::perturb() {
  clear_queue();
  Configuration start;
  if (rng_.bernoulli(opts_.restart_probability)) {
    start = space_.random_configuration(rng_);
  } else {
    // Kick: re-draw `kick_strength` random dimensions of the incumbent to
    // random grid values, keeping the rest (ParamILS's bounded perturbation).
    start = incumbent_;
    std::vector<std::size_t> dims(space_.size());
    for (std::size_t i = 0; i < dims.size(); ++i) dims[i] = i;
    rng_.shuffle(dims);
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(opts_.kick_strength), dims.size());
    for (std::size_t i = 0; i < k; ++i) {
      const ParameterDef& def = space_.param(dims[i]);
      const std::uint64_t grid = std::max<std::uint64_t>(def.grid_size(), 1);
      start[dims[i]] = def.value_at(static_cast<std::uint64_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(grid) - 1)));
    }
    start = space_.snap(std::move(start));
  }
  phase_ = Phase::kStart;
  push(std::move(start));
}

// ---------------------------------------------------------------------------
// EvolutionarySearch
// ---------------------------------------------------------------------------

EvolutionarySearch::EvolutionarySearch(
    const ParameterSpace& space, SimplexOptions common,
    EvolutionOptions options, std::vector<Configuration> initial_vertices,
    std::vector<double> seeded_values, std::span<const Measurement> history)
    : QueueSearch(space, common, options.seed), opts_(options) {
  HARMONY_REQUIRE(opts_.population >= 2, "population must be >= 2");
  HARMONY_REQUIRE(opts_.elites >= 0 && opts_.elites < opts_.population,
                  "elites must be in [0, population)");
  HARMONY_REQUIRE(opts_.tournament_k >= 1, "tournament_k must be >= 1");
  HARMONY_REQUIRE(opts_.max_stall_generations >= 1,
                  "max_stall_generations must be >= 1");

  std::set<Configuration> seen;
  for (std::size_t i = 0; i < initial_vertices.size(); ++i) {
    Configuration snapped = space_.snap(initial_vertices[i]);
    if (i < seeded_values.size() && !std::isnan(seeded_values[i])) {
      memoize(snapped, seeded_values[i]);
    }
    if (seen.insert(snapped).second) population_.push_back(std::move(snapped));
  }

  const std::size_t target = static_cast<std::size_t>(opts_.population);
  const auto observed = [](const Measurement& m) { return !m.censored; };
  if (population_.size() < target && opts_.model_seeding &&
      std::count_if(history.begin(), history.end(), observed) >= 2) {
    // Cheap-model seeding (§4 applied to a population): rank a pool of
    // random candidates by the plane-fit estimate over prior-run history and
    // admit the most promising ones.
    PerformanceEstimator model(space_);
    for (const Measurement& m : history) {
      if (observed(m)) model.add(m.config, m.performance);
    }
    std::vector<std::pair<double, Configuration>> pool;
    for (int i = 0; i < opts_.seeding_pool; ++i) {
      Configuration c = space_.random_configuration(rng_);
      const double score = model.estimate(c).value;
      pool.emplace_back(score, std::move(c));
    }
    std::sort(pool.begin(), pool.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (auto& [score, config] : pool) {
      if (population_.size() >= target) break;
      if (seen.insert(config).second) population_.push_back(std::move(config));
    }
  }
  int attempts = 0;
  while (population_.size() < target && attempts < opts_.population * 30) {
    ++attempts;
    Configuration c = space_.random_configuration(rng_);
    if (seen.insert(c).second) population_.push_back(std::move(c));
  }

  for (const Configuration& member : population_) push(member);
}

void EvolutionarySearch::on_candidate(const Configuration&, double) {
  // Generational barrier: all decisions happen in round_complete().
}

void EvolutionarySearch::round_complete() {
  // Every member has been delivered (live or memoized) — rank the
  // generation. Ties break on the configuration itself so the order is a
  // pure function of the values, not of sort internals.
  std::vector<std::pair<Configuration, double>> ranked;
  ranked.reserve(population_.size());
  for (const Configuration& member : population_) {
    const double* v = lookup(member);
    HARMONY_REQUIRE(v != nullptr, "generation member without a value");
    ranked.emplace_back(member, *v);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  const double gen_best = ranked.front().second;
  if (!has_generation_best_ || gen_best > generation_best_) {
    generation_best_ = gen_best;
    has_generation_best_ = true;
    stall_ = 0;
  } else {
    ++stall_;
  }
  // Same censoring rule as everywhere: a best made of substituted penalties
  // never satisfies a convergence criterion.
  if (stall_ >= opts_.max_stall_generations && !censored(generation_best_)) {
    finish("stall", true);
    return;
  }

  // Breed the next generation: elite carry-over (memoized, so free), then
  // offspring from k-tournament parents with uniform crossover and per-gene
  // mutation over the grid.
  std::vector<Configuration> next;
  std::set<Configuration> seen;
  const std::size_t n_elites =
      std::min<std::size_t>(static_cast<std::size_t>(opts_.elites),
                            ranked.size());
  for (std::size_t i = 0; i < n_elites; ++i) {
    if (seen.insert(ranked[i].first).second) next.push_back(ranked[i].first);
  }
  const std::size_t target = static_cast<std::size_t>(opts_.population);
  int attempts = 0;
  while (next.size() < target && attempts < opts_.population * 30) {
    ++attempts;
    const Configuration& pa = select_parent(ranked);
    const Configuration& pb = select_parent(ranked);
    Configuration child = pa;
    if (rng_.bernoulli(opts_.crossover_rate)) {
      for (std::size_t g = 0; g < child.size(); ++g) {
        if (rng_.bernoulli(0.5)) child[g] = pb[g];
      }
    }
    for (std::size_t g = 0; g < child.size(); ++g) {
      if (!rng_.bernoulli(opts_.mutation_rate)) continue;
      const ParameterDef& def = space_.param(g);
      const std::uint64_t grid = std::max<std::uint64_t>(def.grid_size(), 1);
      child[g] = def.value_at(static_cast<std::uint64_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(grid) - 1)));
    }
    child = space_.snap(std::move(child));
    if (seen.insert(child).second) next.push_back(std::move(child));
  }

  population_ = std::move(next);
  for (const Configuration& member : population_) push(member);
}

const Configuration& EvolutionarySearch::select_parent(
    const std::vector<std::pair<Configuration, double>>& ranked) {
  // ranked is sorted best-first, so the tournament winner is the smallest
  // drawn index.
  std::size_t winner = ranked.size();
  for (int i = 0; i < opts_.tournament_k; ++i) {
    const auto draw = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(ranked.size()) - 1));
    winner = std::min(winner, draw);
  }
  return ranked[winner].first;
}

// ---------------------------------------------------------------------------
// Registry / factory
// ---------------------------------------------------------------------------

const std::vector<std::string>& search_kernel_names() {
  static const std::vector<std::string> names = {"simplex", "ils",
                                                 "evolutionary"};
  return names;
}

bool is_search_kernel(const std::string& name) {
  const auto& names = search_kernel_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<SearchStrategy> make_search_kernel(
    const SearchSpec& spec, const ParameterSpace& space,
    const SimplexOptions& common, std::vector<Configuration> initial_vertices,
    std::vector<double> seeded_values, std::span<const Measurement> history) {
  if (spec.kernel == "simplex") {
    return std::make_unique<StepwiseSimplex>(space, common,
                                             std::move(initial_vertices),
                                             std::move(seeded_values));
  }
  if (spec.kernel == "ils") {
    return std::make_unique<IteratedLocalSearch>(space, common, spec.ils,
                                                 std::move(initial_vertices),
                                                 std::move(seeded_values));
  }
  if (spec.kernel == "evolutionary") {
    return std::make_unique<EvolutionarySearch>(
        space, common, spec.evolution, std::move(initial_vertices),
        std::move(seeded_values), history);
  }
  throw Error("unknown search kernel: " + spec.kernel +
              " (expected simplex, ils or evolutionary)");
}

}  // namespace harmony

#include "core/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace harmony {

namespace {

void validate_options(const SimplexOptions& opts) {
  HARMONY_REQUIRE(opts.alpha > 0.0, "alpha must be positive");
  HARMONY_REQUIRE(opts.gamma > 1.0, "gamma must exceed 1");
  HARMONY_REQUIRE(opts.beta > 0.0 && opts.beta < 1.0, "beta in (0,1)");
  HARMONY_REQUIRE(opts.sigma > 0.0 && opts.sigma < 1.0, "sigma in (0,1)");
  HARMONY_REQUIRE(opts.max_evaluations > 0, "evaluation budget needed");
}

}  // namespace

StepwiseSimplex::StepwiseSimplex(const ParameterSpace& space,
                                 SimplexOptions options,
                                 std::vector<Configuration> initial_vertices,
                                 std::vector<double> seeded_values)
    : space_(space), opts_(options) {
  validate_options(opts_);
  HARMONY_REQUIRE(space_.size() > 0, "empty parameter space");
  HARMONY_REQUIRE(
      seeded_values.empty() || seeded_values.size() == initial_vertices.size(),
      "seeded values arity mismatch");

  // Snap and deduplicate the initial vertices, keeping seeded values aligned.
  for (std::size_t i = 0; i < initial_vertices.size(); ++i) {
    Configuration c = space_.snap(std::move(initial_vertices[i]));
    const bool dup =
        std::any_of(init_configs_.begin(), init_configs_.end(),
                    [&](const Configuration& o) { return o == c; });
    if (dup) continue;
    init_configs_.push_back(std::move(c));
    init_seeded_.push_back(i < seeded_values.size()
                               ? seeded_values[i]
                               : std::numeric_limits<double>::quiet_NaN());
  }
  HARMONY_REQUIRE(init_configs_.size() >= 2,
                  "initial simplex degenerate (need >= 2 distinct vertices)");
}

const SearchResult& StepwiseSimplex::result() const {
  HARMONY_REQUIRE(state_ == State::kDone, "simplex search still running");
  return result_;
}

void StepwiseSimplex::record(const Configuration& c, double value) {
  if (result_.best.empty() || value > result_.best_value) {
    result_.best = c;
    result_.best_value = value;
  }
}

void StepwiseSimplex::sort_vertices() {
  std::sort(verts_.begin(), verts_.end(),
            [](const Vertex& a, const Vertex& b) { return a.value > b.value; });
}

Configuration StepwiseSimplex::affine(double t) const {
  const std::size_t n = space_.size();
  Configuration c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = centroid_[i] + t * (centroid_[i] - worst_config_[i]);
  }
  return space_.snap(std::move(c));
}

double StepwiseSimplex::simplex_diameter() const {
  double d = 0.0;
  for (std::size_t i = 0; i < verts_.size(); ++i) {
    for (std::size_t j = i + 1; j < verts_.size(); ++j) {
      d = std::max(d, space_.normalized_distance(verts_[i].config,
                                                 verts_[j].config));
    }
  }
  return d;
}

void StepwiseSimplex::finish(bool converged, std::string reason) {
  state_ = State::kDone;
  pending_.reset();
  awaiting_submit_ = false;
  result_.converged = converged;
  result_.stop_reason = std::move(reason);
  result_.evaluations = evals_;
  if (result_.best.empty() && !verts_.empty()) {
    sort_vertices();
    result_.best = verts_.front().config;
    result_.best_value = verts_.front().value;
  }
}

const Configuration* StepwiseSimplex::peek() {
  if (state_ == State::kDone) return nullptr;
  if (awaiting_submit_) return &*pending_;  // idempotent until submit()

  if (state_ == State::kInit) {
    // Consume seeded vertices (no live measurement), then serve the rest.
    while (init_index_ < init_configs_.size() &&
           !std::isnan(init_seeded_[init_index_])) {
      const Configuration& c = init_configs_[init_index_];
      const double v = init_seeded_[init_index_];
      record(c, v);
      verts_.push_back({c, v});
      ++init_index_;
    }
    if (init_index_ < init_configs_.size()) {
      if (evals_ >= opts_.max_evaluations) {
        finish(false, "budget");
        return nullptr;
      }
      pending_ = init_configs_[init_index_];
      awaiting_submit_ = true;
      return &*pending_;
    }
    state_ = State::kPlan;
    plan();
    if (state_ == State::kDone) return nullptr;
    return &*pending_;
  }

  // kPlan with no pending measurement cannot happen: plan() either sets a
  // pending proposal or finishes.
  return pending_.has_value() ? &*pending_ : nullptr;
}

namespace {

/// Appends `c` unless an equal configuration is already present (the
/// frontier is small — linear scan beats hashing here).
void push_unique(std::vector<Configuration>& out, Configuration c) {
  for (const Configuration& o : out) {
    if (o == c) return;
  }
  out.push_back(std::move(c));
}

}  // namespace

void StepwiseSimplex::append_shrink_targets(std::vector<Configuration>& out,
                                            std::size_t from) const {
  // Mirrors continue_shrink(): every remaining vertex's shrink destination,
  // computed from the current best vertex (index 0 is kept by a shrink, so
  // the targets are exact even while a shrink is in flight).
  if (verts_.empty()) return;
  const std::size_t n = space_.size();
  const Configuration& xb = verts_.front().config;
  for (std::size_t v = std::max<std::size_t>(from, 1); v < verts_.size();
       ++v) {
    Configuration c(n);
    for (std::size_t i = 0; i < n; ++i) {
      c[i] = xb[i] + opts_.sigma * (verts_[v].config[i] - xb[i]);
    }
    c = space_.snap(std::move(c));
    if (c == verts_[v].config) continue;  // cannot move: never requested
    push_unique(out, std::move(c));
  }
}

void StepwiseSimplex::append_reseed_targets(std::vector<Configuration>& out,
                                            std::size_t from) const {
  // Mirrors continue_reseed(): unit-step displacements of the best vertex
  // along the dimension each restart vertex cycles through.
  if (verts_.empty()) return;
  const std::size_t n = space_.size();
  const Configuration& xb = verts_.front().config;
  for (std::size_t idx = std::max<std::size_t>(from, 1); idx < verts_.size();
       ++idx) {
    const std::size_t dim = (idx - 1) % n;
    for (const double sign : {+1.0, -1.0}) {
      Configuration c = xb;
      c[dim] += sign * space_.param(dim).step;
      c = space_.snap(std::move(c));
      if (c == xb) continue;
      push_unique(out, std::move(c));
    }
  }
}

std::vector<Configuration> StepwiseSimplex::frontier() {
  std::vector<Configuration> out;
  const Configuration* pending = peek();  // materializes the pending slot
  if (pending == nullptr) return out;
  out.reserve(4 + 3 * verts_.size());
  out.push_back(*pending);
  const bool may_reseed = restarts_ < opts_.max_restarts;
  switch (state_) {
    case State::kInit:
      // The remaining live initial vertices are requested unconditionally;
      // the first post-init move depends on their values and is not
      // speculated.
      for (std::size_t j = init_index_; j < init_configs_.size(); ++j) {
        if (std::isnan(init_seeded_[j])) push_unique(out, init_configs_[j]);
      }
      break;
    case State::kReflect:
      // Depending on f(xr): expansion, outside or inside contraction; a
      // collided contraction (or a duplicate accept) falls through to a
      // shrink, and a stuck shrink to a unit-step restart.
      push_unique(out, affine(opts_.gamma));
      push_unique(out, affine(opts_.beta));
      push_unique(out, affine(-opts_.beta));
      append_shrink_targets(out, 1);
      if (may_reseed) append_reseed_targets(out, 1);
      break;
    case State::kExpand:
    case State::kContract:
      // Acceptance ends the move; a duplicate accept (kExpand) or a failed
      // contraction (kContract) shrinks the current simplex.
      append_shrink_targets(out, 1);
      if (may_reseed) append_reseed_targets(out, 1);
      break;
    case State::kShrink:
      append_shrink_targets(out, shrink_index_);
      if (may_reseed) append_reseed_targets(out, 1);
      break;
    case State::kReseed:
      // begin_reseed() already consumed a restart slot for this pass, so
      // the remaining targets are reachable regardless of restarts_.
      append_reseed_targets(out, reseed_index_);
      break;
    default:
      break;
  }
  return out;
}

void StepwiseSimplex::plan() {
  // Invoked with state kPlan; decides the next move.
  sort_vertices();
  const double best = verts_.front().value;

  // Stall accounting: compare against the best seen at the previous
  // planning step (the first entry only initializes it).
  if (prev_best_initialized_) {
    if (best > prev_best_ + 1e-12) {
      stall_ = 0;
    } else {
      ++stall_;
    }
  }
  prev_best_ = best;
  prev_best_initialized_ = true;

  const double worst = verts_.back().value;
  const double spread =
      std::abs(best - worst) / std::max(std::abs(best), 1e-12);
  const bool worst_censored = worst <= opts_.censored_threshold;
  if (!worst_censored && spread < opts_.perf_rel_tolerance) {
    double plateau = opts_.plateau_diameter;
    if (plateau <= 0.0) {
      double max_step = 0.0;
      for (std::size_t i = 0; i < space_.size(); ++i) {
        const ParameterDef& p = space_.param(i);
        const double range = p.max_value - p.min_value;
        if (range > 0.0) max_step = std::max(max_step, p.step / range);
      }
      plateau = 3.0 * max_step;
    }
    if (simplex_diameter() <= plateau ||
        plateau_shrinks_ >= opts_.max_plateau_shrinks) {
      finish(true, "perf-spread");
      return;
    }
    // Equal-valued but spatially spread vertices: a plateau of the
    // quantized landscape, not convergence — contract and keep searching.
    ++plateau_shrinks_;
    begin_shrink();
    return;
  }
  if (simplex_diameter() < opts_.size_tolerance) {
    finish(true, "size");
    return;
  }
  if (stall_ >= opts_.max_stall_moves) {
    finish(true, "stall");
    return;
  }
  if (evals_ >= opts_.max_evaluations) {
    finish(false, "budget");
    return;
  }

  // Centroid of all vertices but the worst.
  const std::size_t n = space_.size();
  centroid_.assign(n, 0.0);
  for (std::size_t v = 0; v + 1 < verts_.size(); ++v) {
    for (std::size_t i = 0; i < n; ++i) centroid_[i] += verts_[v].config[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    centroid_[i] /= static_cast<double>(verts_.size() - 1);
  }
  worst_config_ = verts_.back().config;
  worst_value_ = worst;
  second_worst_value_ = verts_[verts_.size() - 2].value;
  best_value_ = best;

  xr_ = affine(opts_.alpha);
  pending_ = xr_;
  awaiting_submit_ = true;
  state_ = State::kReflect;
}

void StepwiseSimplex::submit(double performance) {
  HARMONY_REQUIRE(awaiting_submit_ && pending_.has_value(),
                  "no measurement outstanding");
  const Configuration measured = *pending_;
  awaiting_submit_ = false;
  pending_.reset();
  ++evals_;
  record(measured, performance);

  switch (state_) {
    case State::kInit: {
      verts_.push_back({measured, performance});
      ++init_index_;
      if (init_index_ >= init_configs_.size()) {
        state_ = State::kPlan;
        plan();
      }
      return;
    }
    case State::kReflect: {
      fr_ = performance;
      if (fr_ > best_value_) {
        const Configuration xe = affine(opts_.gamma);
        if (xe != xr_) {
          if (evals_ >= opts_.max_evaluations) {
            finish(false, "budget");
            return;
          }
          pending_ = xe;
          awaiting_submit_ = true;
          state_ = State::kExpand;
          return;
        }
        accept(xr_, fr_);
        return;
      }
      if (fr_ > second_worst_value_) {
        accept(xr_, fr_);
        return;
      }
      const bool outside = fr_ > worst_value_;
      const Configuration xc = affine(outside ? opts_.beta : -opts_.beta);
      if (xc != worst_config_) {
        if (evals_ >= opts_.max_evaluations) {
          finish(false, "budget");
          return;
        }
        pending_ = xc;
        awaiting_submit_ = true;
        state_ = State::kContract;
        return;
      }
      begin_shrink();
      return;
    }
    case State::kExpand: {
      if (performance > fr_) {
        accept(measured, performance);
      } else {
        accept(xr_, fr_);
      }
      return;
    }
    case State::kContract: {
      if (performance > std::max(fr_, worst_value_)) {
        accept(measured, performance);
        return;
      }
      begin_shrink();
      return;
    }
    case State::kShrink: {
      verts_[shrink_index_] = {measured, performance};
      shrink_moved_any_ = true;
      ++shrink_index_;
      continue_shrink();
      return;
    }
    case State::kReseed: {
      verts_[reseed_index_] = {measured, performance};
      reseed_moved_any_ = true;
      ++reseed_index_;
      continue_reseed();
      return;
    }
    default:
      throw Error("submit in invalid simplex state");
  }
}

void StepwiseSimplex::accept(const Configuration& config, double value) {
  // Accepting a vertex that duplicates an existing one would fold the
  // simplex onto itself (snapped moves make this possible); shrink instead
  // to regain affine independence.
  for (std::size_t v = 0; v + 1 < verts_.size(); ++v) {
    if (verts_[v].config == config) {
      begin_shrink();
      return;
    }
  }
  verts_.back() = {config, value};
  state_ = State::kPlan;
  plan();
}

void StepwiseSimplex::begin_shrink() {
  shrink_index_ = 1;  // keep the best vertex (index 0 after sorting)
  shrink_moved_any_ = false;
  state_ = State::kShrink;
  continue_shrink();
}

void StepwiseSimplex::continue_shrink() {
  const std::size_t n = space_.size();
  const Configuration& xb = verts_.front().config;
  while (shrink_index_ < verts_.size()) {
    Configuration c(n);
    for (std::size_t i = 0; i < n; ++i) {
      c[i] = xb[i] + opts_.sigma * (verts_[shrink_index_].config[i] - xb[i]);
    }
    c = space_.snap(std::move(c));
    bool collides = (c == verts_[shrink_index_].config);
    for (std::size_t v = 0; v < verts_.size() && !collides; ++v) {
      collides = (v != shrink_index_ && verts_[v].config == c);
    }
    if (collides) {
      ++shrink_index_;  // grid too coarse to move this vertex distinctly
      continue;
    }
    if (evals_ >= opts_.max_evaluations) {
      finish(false, "budget");
      return;
    }
    pending_ = std::move(c);
    awaiting_submit_ = true;
    return;
  }
  if (!shrink_moved_any_) {
    // The whole simplex has collapsed onto the grid; try a unit-step
    // restart around the best vertex before giving up.
    begin_reseed();
    return;
  }
  state_ = State::kPlan;
  plan();
}

void StepwiseSimplex::begin_reseed() {
  if (restarts_ >= opts_.max_restarts) {
    finish(true, "size");
    return;
  }
  ++restarts_;
  reseed_index_ = 1;  // keep the best vertex
  reseed_moved_any_ = false;
  state_ = State::kReseed;
  continue_reseed();
}

void StepwiseSimplex::continue_reseed() {
  const std::size_t n = space_.size();
  const Configuration& xb = verts_.front().config;
  while (reseed_index_ < verts_.size()) {
    const std::size_t dim = (reseed_index_ - 1) % n;
    auto collides = [&](const Configuration& c) {
      for (std::size_t v = 0; v < verts_.size(); ++v) {
        if (v != reseed_index_ && verts_[v].config == c) return true;
      }
      return c == verts_[reseed_index_].config;
    };
    bool placed = false;
    for (const double sign : {+1.0, -1.0}) {
      Configuration c = xb;
      c[dim] += sign * space_.param(dim).step;
      c = space_.snap(std::move(c));
      if (c == xb || collides(c)) continue;
      if (evals_ >= opts_.max_evaluations) {
        finish(false, "budget");
        return;
      }
      pending_ = std::move(c);
      awaiting_submit_ = true;
      placed = true;
      break;
    }
    if (placed) return;
    ++reseed_index_;  // no fresh point available along this dimension
  }
  if (!reseed_moved_any_) {
    finish(true, "size");
    return;
  }
  state_ = State::kPlan;
  plan();
}

SimplexSearch::SimplexSearch(const ParameterSpace& space,
                             SimplexOptions options)
    : space_(space), opts_(options) {
  validate_options(opts_);
}

SearchResult SimplexSearch::maximize(
    const Evaluator& evaluate, std::vector<Configuration> initial_vertices,
    const std::vector<double>& seeded_values) {
  StepwiseSimplex machine(space_, opts_, std::move(initial_vertices),
                          seeded_values);
  while (const Configuration* c = machine.peek()) {
    machine.submit(evaluate(*c));
  }
  return machine.result();
}

}  // namespace harmony

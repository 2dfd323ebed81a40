#include "core/simplex.hpp"

#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/strategies.hpp"
#include "synth/landscapes.hpp"
#include "util/error.hpp"

namespace harmony {
namespace {

using synth::sphere_objective;
using synth::staircase_objective;
using synth::symmetric_space;

TEST(Strategies, ExtremeCornerPutsVerticesOnBoundary) {
  const ParameterSpace space = symmetric_space(3, 10.0, 1.0);
  ExtremeCornerStrategy strategy;
  const auto verts = strategy.vertices(space, space.defaults());
  ASSERT_EQ(verts.size(), 4u);
  for (const auto& v : verts) {
    bool on_boundary = false;
    for (std::size_t i = 0; i < space.size(); ++i) {
      const auto& p = space.param(i);
      if (v[i] == p.min_value || v[i] == p.max_value) on_boundary = true;
    }
    EXPECT_TRUE(on_boundary);
  }
  EXPECT_EQ(std::set<Configuration>(verts.begin(), verts.end()).size(), 4u);
}

TEST(Strategies, EvenSpreadKeepsVerticesInterior) {
  const ParameterSpace space = symmetric_space(4, 10.0, 1.0);
  EvenSpreadStrategy strategy;
  const auto verts = strategy.vertices(space, space.defaults());
  ASSERT_EQ(verts.size(), 5u);
  // No vertex may sit at a parameter extreme (the whole point of §4.1).
  for (const auto& v : verts) {
    for (std::size_t i = 0; i < space.size(); ++i) {
      const auto& p = space.param(i);
      EXPECT_GT(v[i], p.min_value);
      EXPECT_LT(v[i], p.max_value);
    }
  }
  EXPECT_EQ(std::set<Configuration>(verts.begin(), verts.end()).size(), 5u);
}

TEST(Strategies, EvenSpreadDisplacesEachParameterDifferently) {
  const ParameterSpace space = symmetric_space(4, 10.0, 1.0);
  EvenSpreadStrategy strategy;
  const auto verts = strategy.vertices(space, space.defaults());
  std::set<double> displacements;
  for (std::size_t i = 0; i < space.size(); ++i) {
    displacements.insert(std::abs(verts[i + 1][i] - verts[0][i]));
  }
  EXPECT_GE(displacements.size(), 3u);  // fractions i/(n+1) differ
}

TEST(Strategies, SeededUsesSeedsThenFills) {
  const ParameterSpace space = symmetric_space(3, 10.0, 1.0);
  const Configuration seed1 = space.snap({1.0, 2.0, 3.0});
  const Configuration seed2 = space.snap({-1.0, 0.0, 2.0});
  SeededStrategy strategy({seed1, seed2, seed1 /*dup dropped*/});
  const auto verts = strategy.vertices(space, space.defaults());
  ASSERT_EQ(verts.size(), 4u);
  EXPECT_EQ(verts[0], seed1);
  EXPECT_EQ(verts[1], seed2);
  EXPECT_EQ(std::set<Configuration>(verts.begin(), verts.end()).size(), 4u);
}

TEST(Strategies, DedupSnapsAndRemovesDuplicates) {
  const ParameterSpace space = symmetric_space(1, 5.0, 1.0);
  const auto out = dedup_configurations(
      space, {{1.2}, {0.8} /*both snap to 1*/, {2.0}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0][0], 1.0);
  EXPECT_DOUBLE_EQ(out[1][0], 2.0);
}

/// Parameterized over dimensionality: the kernel must find the sphere
/// optimum on the grid from even-spread starts.
class SimplexSphere : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimplexSphere, FindsInteriorOptimum) {
  const std::size_t dims = GetParam();
  const ParameterSpace space = symmetric_space(dims, 10.0, 1.0);
  auto objective = sphere_objective(3.0);
  SimplexOptions opts;
  opts.max_evaluations = 600;
  SimplexSearch search(space, opts);
  EvenSpreadStrategy strategy;
  const auto result = search.maximize(
      [&](const Configuration& c) { return objective.measure(c); },
      strategy.vertices(space, space.defaults()));
  ASSERT_FALSE(result.best.empty());
  // Optimum is all-3s with value 0; accept near-optimal grid points.
  EXPECT_GE(result.best_value, -2.0 * static_cast<double>(dims));
}

INSTANTIATE_TEST_SUITE_P(Dims, SimplexSphere, ::testing::Values(1, 2, 3, 5, 8));

TEST(Simplex, HandlesPiecewiseConstantLandscape) {
  const ParameterSpace space = symmetric_space(3, 10.0, 1.0);
  auto objective = staircase_objective(2.0, 8.0, 10);
  SimplexOptions opts;
  opts.max_evaluations = 400;
  SimplexSearch search(space, opts);
  EvenSpreadStrategy strategy;
  const auto result = search.maximize(
      [&](const Configuration& c) { return objective.measure(c); },
      strategy.vertices(space, space.defaults()));
  // Max per dim is 10 (at x=2); require at least 80 % of the total.
  EXPECT_GE(result.best_value, 24.0);
}

TEST(Simplex, RespectsEvaluationBudget) {
  const ParameterSpace space = symmetric_space(4, 50.0, 1.0);
  auto objective = sphere_objective(17.0);
  SimplexOptions opts;
  opts.max_evaluations = 9;
  SimplexSearch search(space, opts);
  EvenSpreadStrategy strategy;
  const auto result = search.maximize(
      [&](const Configuration& c) { return objective.measure(c); },
      strategy.vertices(space, space.defaults()));
  EXPECT_LE(result.evaluations, 9);
  EXPECT_EQ(result.stop_reason, "budget");
}

TEST(Simplex, SeededValuesSkipLiveMeasurement) {
  const ParameterSpace space = symmetric_space(2, 10.0, 1.0);
  int live_calls = 0;
  auto eval = [&](const Configuration& c) {
    ++live_calls;
    double s = 0.0;
    for (double x : c) s -= (x - 2.0) * (x - 2.0);
    return s;
  };
  EvenSpreadStrategy strategy;
  auto verts = strategy.vertices(space, space.defaults());
  std::vector<double> seeded(verts.size(),
                             std::numeric_limits<double>::quiet_NaN());
  // Provide the first two vertex values from "history".
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0.0;
    for (double x : verts[i]) s -= (x - 2.0) * (x - 2.0);
    seeded[i] = s;
  }
  SimplexOptions opts;
  opts.max_evaluations = 200;
  SimplexSearch search(space, opts);
  const int before = live_calls;
  const auto result = search.maximize(eval, verts, seeded);
  EXPECT_EQ(before, 0);
  // Initial simplex only needed one live measurement (the third vertex).
  EXPECT_GE(result.evaluations, 1);
  EXPECT_GE(result.best_value, -2.0);
}

TEST(Simplex, DegenerateInitialSimplexThrows) {
  const ParameterSpace space = symmetric_space(2, 10.0, 1.0);
  SimplexSearch search(space, SimplexOptions{});
  const Configuration same = space.defaults();
  EXPECT_THROW((void)search.maximize(
                   [](const Configuration&) { return 0.0; }, {same, same}),
               Error);
}

TEST(Simplex, OptionValidation) {
  const ParameterSpace space = symmetric_space(1, 1.0, 1.0);
  SimplexOptions bad;
  bad.alpha = 0.0;
  EXPECT_THROW(SimplexSearch(space, bad), Error);
  bad = SimplexOptions{};
  bad.beta = 1.5;
  EXPECT_THROW(SimplexSearch(space, bad), Error);
  bad = SimplexOptions{};
  bad.max_evaluations = 0;
  EXPECT_THROW(SimplexSearch(space, bad), Error);
}

/// Both initial-simplex strategies must let the kernel find near-optimal
/// points; the improved one must do it without ever probing the boundary.
class StrategySweep : public ::testing::TestWithParam<int> {};

TEST_P(StrategySweep, ReachesNearOptimum) {
  const ParameterSpace space = symmetric_space(4, 10.0, 1.0);
  auto objective = sphere_objective(-3.0);
  std::unique_ptr<InitialSimplexStrategy> strategy;
  if (GetParam() == 0) {
    strategy = std::make_unique<ExtremeCornerStrategy>();
  } else {
    strategy = std::make_unique<EvenSpreadStrategy>();
  }
  SimplexOptions opts;
  opts.max_evaluations = 500;
  SimplexSearch search(space, opts);
  const auto r = search.maximize(
      [&](const Configuration& c) { return objective.measure(c); },
      strategy->vertices(space, space.defaults()));
  // The even-spread start must get close; the extreme-corner start is
  // allowed to do noticeably worse (boundary-collapse is exactly the
  // behaviour §4.1 replaces) but must still make large progress from the
  // corner values (~ -500).
  if (GetParam() == 1) {
    EXPECT_GE(r.best_value, -8.0) << strategy->name();
  } else {
    EXPECT_GE(r.best_value, -80.0) << strategy->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategySweep, ::testing::Values(0, 1));

/// The blocking wrapper and a manual StepwiseSimplex loop must agree
/// exactly on deterministic objectives.
class StepwiseEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StepwiseEquivalence, MatchesBlockingSearch) {
  const std::size_t dims = GetParam();
  const ParameterSpace space = symmetric_space(dims, 12.0, 1.0);
  auto objective = sphere_objective(-4.0);
  SimplexOptions opts;
  opts.max_evaluations = 300;
  EvenSpreadStrategy strategy;
  const auto verts = strategy.vertices(space, space.defaults());

  SimplexSearch blocking(space, opts);
  const SearchResult a = blocking.maximize(
      [&](const Configuration& c) { return objective.measure(c); }, verts);

  StepwiseSimplex machine(space, opts, verts);
  while (const Configuration* c = machine.peek()) {
    machine.submit(objective.measure(*c));
  }
  const SearchResult& b = machine.result();

  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
}

INSTANTIATE_TEST_SUITE_P(Dims, StepwiseEquivalence,
                         ::testing::Values(1, 2, 4, 6));

TEST(StepwiseSimplex, PeekIsIdempotentAndSubmitGuarded) {
  const ParameterSpace space = symmetric_space(2, 5.0, 1.0);
  EvenSpreadStrategy strategy;
  StepwiseSimplex machine(space, SimplexOptions{},
                          strategy.vertices(space, space.defaults()));
  EXPECT_THROW(machine.submit(1.0), Error);  // nothing outstanding
  const Configuration* c1 = machine.peek();
  ASSERT_NE(c1, nullptr);
  const Configuration snapshot = *c1;
  const Configuration* c2 = machine.peek();
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(snapshot, *c2);  // repeated peek() without submit
  machine.submit(0.0);
  EXPECT_THROW((void)machine.result(), Error);  // still running
}

TEST(StepwiseSimplex, ExploresOnlyFeasibleConfigsInConstrainedSpace) {
  // B in [1,8], C in [1, 9-B]: every proposal must respect the relation.
  ParameterSpace space;
  space.add(ParameterDef("B", 1, 8, 1, 4));
  ParameterDef c_def("C", 1, 8, 1, 2);
  c_def.upper = make_binary('-', make_const(9.0), make_param_ref(0, "B"));
  space.add(std::move(c_def));

  EvenSpreadStrategy strategy;
  StepwiseSimplex machine(space, SimplexOptions{},
                          strategy.vertices(space, space.defaults()));
  int steps = 0;
  while (const Configuration* c = machine.peek()) {
    EXPECT_TRUE(space.feasible(*c));
    EXPECT_LE((*c)[1], 9.0 - (*c)[0] + 1e-9);
    // Reward large B+C to push the search against the constraint boundary.
    machine.submit((*c)[0] + (*c)[1]);
    ASSERT_LT(++steps, 500);
  }
}

TEST(Simplex, ReportsConvergenceReason) {
  const ParameterSpace space = symmetric_space(2, 10.0, 1.0);
  FunctionObjective flat([](const Configuration&) { return 5.0; });
  SimplexSearch search(space, SimplexOptions{});
  EvenSpreadStrategy strategy;
  const auto result = search.maximize(
      [&](const Configuration& c) { return flat.measure(c); },
      strategy.vertices(space, space.defaults()));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.stop_reason, "perf-spread");
}

}  // namespace
}  // namespace harmony

#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "synth/landscapes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace harmony {
namespace {

using synth::sphere_objective;
using synth::symmetric_space;

TEST(TuningSession, TunesAndRecordsTrace) {
  const ParameterSpace space = symmetric_space(3, 10.0, 1.0);
  auto objective = sphere_objective(-2.0);
  TuningOptions opts;
  opts.simplex.max_evaluations = 300;
  TuningSession session(space, objective, opts);
  const TuningResult r = session.run();
  EXPECT_EQ(static_cast<int>(r.trace.size()), r.evaluations);
  EXPECT_GE(r.best_performance, -6.0);
  // Best must appear in the trace.
  bool found = false;
  for (const auto& m : r.trace) {
    if (m.config == r.best_config) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TuningSession, SetStartControlsOrigin) {
  const ParameterSpace space = symmetric_space(2, 10.0, 1.0);
  auto objective = sphere_objective(0.0);
  TuningSession session(space, objective, {});
  session.set_start({9.0, 9.0});
  const TuningResult r = session.run();
  EXPECT_EQ(r.trace.front().config, (Configuration{9.0, 9.0}));
}

TEST(TuningSession, SeedWithRecordedValuesSavesMeasurements) {
  const ParameterSpace space = symmetric_space(2, 10.0, 1.0);
  int calls = 0;
  FunctionObjective objective([&](const Configuration& c) {
    ++calls;
    double s = 0.0;
    for (double x : c) s -= (x - 1.0) * (x - 1.0);
    return s;
  });

  // Non-collinear history points (collinear seeds would degenerate the
  // simplex to a line).
  std::vector<Measurement> history;
  for (const Configuration& c :
       {Configuration{0.0, 0.0}, {3.0, 0.0}, {0.0, 3.0}}) {
    const double v =
        -(c[0] - 1.0) * (c[0] - 1.0) - (c[1] - 1.0) * (c[1] - 1.0);
    history.push_back({c, v, false});
  }

  TuningOptions opts;
  opts.simplex.max_evaluations = 100;
  TuningSession seeded(space, objective, opts);
  seeded.seed(history, /*use_recorded_values=*/true);
  const TuningResult r = seeded.run();
  // The three seeded vertices did not consume live measurements, so the
  // trace must be shorter than evaluations+3 would imply.
  EXPECT_EQ(static_cast<int>(r.trace.size()), r.evaluations);
  EXPECT_GE(r.best_performance, -1.0);
}

TEST(TuningSession, SeedReMeasuresWhenAsked) {
  const ParameterSpace space = symmetric_space(1, 5.0, 1.0);
  int calls = 0;
  FunctionObjective objective([&](const Configuration& c) {
    ++calls;
    return -c[0] * c[0];
  });
  std::vector<Measurement> history = {{{2.0}, -4.0, false},
                                      {{1.0}, -1.0, false}};
  TuningSession session(space, objective, {});
  session.seed(history, /*use_recorded_values=*/false);
  (void)session.run();
  EXPECT_GT(calls, 0);
}

TEST(TuningSession, EstimatorFillsMissingTrainingVertices) {
  // A 3-parameter space needs 4 initial vertices, but history covers only
  // two configurations. With estimate_missing the filler vertices get
  // triangulation values instead of live measurements, so the live trace
  // must start strictly later than without it.
  const ParameterSpace space = symmetric_space(3, 10.0, 1.0);
  auto quality = [](const Configuration& c) {
    double s = 0.0;
    for (double x : c) s -= (x - 2.0) * (x - 2.0);
    return s;
  };
  std::vector<Measurement> history;
  for (const Configuration& c :
       {Configuration{0.0, 0.0, 0.0}, {4.0, 0.0, 0.0}, {0.0, 4.0, 2.0}}) {
    history.push_back({c, quality(c), false});
  }
  auto first_live = [&](bool estimate_missing) {
    FunctionObjective objective(quality);
    TuningOptions opts;
    opts.simplex.max_evaluations = 1;  // capture only the first live call
    TuningSession session(space, objective, opts);
    session.seed(history, /*use_recorded_values=*/true, estimate_missing);
    const TuningResult r = session.run();
    return r.trace.empty() ? Configuration{} : r.trace.front().config;
  };
  // The filler vertex set SeededStrategy would add around the best seed.
  const Configuration best_seed = space.snap({0.0, 4.0, 2.0});  // value -8
  EvenSpreadStrategy fill;
  const auto fillers = fill.vertices(space, best_seed);

  const Configuration without = first_live(false);
  const Configuration with = first_live(true);
  auto is_filler = [&](const Configuration& c) {
    return std::find(fillers.begin(), fillers.end(), c) != fillers.end();
  };
  // Without estimation the first live measurement completes the initial
  // simplex (a filler vertex); with estimation the kernel starts moving
  // immediately.
  EXPECT_TRUE(is_filler(without));
  EXPECT_FALSE(is_filler(with));
}

TEST(PlanWarmStart, WithoutPriorIsTheColdStrategy) {
  const ParameterSpace space = symmetric_space(2, 10.0, 1.0);
  const ExtremeCornerStrategy cold;
  const WarmStartPlan plan =
      plan_warm_start(space, cold, space.defaults(), {}, true);
  EXPECT_EQ(plan.vertices, cold.vertices(space, space.defaults()));
  EXPECT_TRUE(plan.values.empty());
  EXPECT_TRUE(plan.history.empty());
}

TEST(PlanWarmStart, SeedsAreTheBestDistinctConfigurationsAfterSnapping) {
  // Grid step 1 on [-5, 5]: 1.8 and 2.2 are recorded separately but snap
  // to the same grid point 2, which must take one seed slot, with the
  // better of the two values.
  const ParameterSpace space = symmetric_space(1, 5.0, 1.0);
  const std::vector<Measurement> prior = {{{1.0}, 5.0},
                                          {{2.2}, 9.0},
                                          {{1.8}, 8.0},
                                          {{-3.0}, -1.0e30, false, true},
                                          {{3.0}, 7.0},
                                          {{-1.0}, 7.0}};
  const EvenSpreadStrategy cold;
  const WarmStartPlan plan =
      plan_warm_start(space, cold, space.defaults(), prior, true);
  // n + 1 = 2 seeds, best first; 3 and -1 tie at 7, so the earlier wins.
  ASSERT_EQ(plan.vertices.size(), 2u);
  EXPECT_EQ(plan.vertices[0], Configuration{2.0});
  EXPECT_EQ(plan.vertices[1], Configuration{3.0});
  ASSERT_EQ(plan.values.size(), 2u);
  EXPECT_EQ(plan.values[0], 9.0);
  EXPECT_EQ(plan.values[1], 7.0);
  // Every measurement passed in, censored ones included (kernels skip
  // those themselves).
  EXPECT_EQ(plan.history.data(), prior.data());
  EXPECT_EQ(plan.history.size(), prior.size());

  const WarmStartPlan live =
      plan_warm_start(space, cold, space.defaults(), prior, false);
  EXPECT_EQ(live.vertices, plan.vertices);
  ASSERT_EQ(live.values.size(), 2u);
  EXPECT_TRUE(std::isnan(live.values[0]));
  EXPECT_TRUE(std::isnan(live.values[1]));
}

TEST(PlanWarmStart, SelectionMatchesAStableSortOfTheSnappedHistory) {
  // Coarse values and off-grid configurations force performance ties and
  // snap collisions; the reference is the stable sort + dedup spelled out.
  const ParameterSpace space = symmetric_space(3, 4.0, 2.0);
  const EvenSpreadStrategy cold;
  Rng rng(19);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<Measurement> prior;
    const int n = 1 + trial * 3;
    for (int i = 0; i < n; ++i) {
      Configuration c;
      for (int d = 0; d < 3; ++d) c.push_back(rng.uniform(-4.0, 4.0));
      prior.push_back(
          {c, static_cast<double>(rng.uniform_int(0, 6)), false});
    }
    std::vector<Measurement> sorted = prior;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Measurement& a, const Measurement& b) {
                       return a.performance > b.performance;
                     });
    std::vector<Measurement> ref;
    for (const Measurement& m : sorted) {
      const Configuration c = space.snap(m.config);
      const bool dup = std::any_of(ref.begin(), ref.end(), [&](const auto& o) {
        return o.config == c;
      });
      if (dup) continue;
      ref.push_back({c, m.performance});
      if (ref.size() == space.size() + 1) break;
    }
    const WarmStartPlan plan =
        plan_warm_start(space, cold, space.defaults(), prior, true);
    ASSERT_EQ(plan.vertices.size(), space.size() + 1);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(plan.vertices[i], ref[i].config) << "trial " << trial;
      EXPECT_EQ(plan.values[i], ref[i].performance) << "trial " << trial;
    }
    for (std::size_t i = ref.size(); i < plan.values.size(); ++i) {
      EXPECT_TRUE(std::isnan(plan.values[i])) << "filler " << i;
    }
  }
}

TEST(TuningSession, ValidatesInputs) {
  ParameterSpace empty;
  FunctionObjective obj([](const Configuration&) { return 0.0; });
  EXPECT_THROW(TuningSession(empty, obj, {}), Error);
  const ParameterSpace space = symmetric_space(1, 1.0, 1.0);
  TuningOptions opts;
  opts.strategy = nullptr;
  EXPECT_THROW(TuningSession(space, obj, opts), Error);
}

TEST(AnalyzeTrace, EmptyTrace) {
  const TraceMetrics m = analyze_trace({});
  EXPECT_EQ(m.convergence_iteration, 0);
  EXPECT_EQ(m.bad_iterations, 0);
}

TEST(AnalyzeTrace, ComputesPaperColumns) {
  std::vector<Measurement> trace;
  for (double p : {10.0, 40.0, 95.0, 60.0, 100.0, 98.0}) {
    trace.push_back({{}, p, false});
  }
  TraceMetricsOptions opts;
  opts.convergence_fraction = 0.95;
  opts.bad_fraction = 0.80;
  opts.initial_window = 3;
  const TraceMetrics m = analyze_trace(trace, opts);
  EXPECT_DOUBLE_EQ(m.best, 100.0);
  EXPECT_DOUBLE_EQ(m.worst, 10.0);
  EXPECT_EQ(m.convergence_iteration, 3);  // 95 >= 0.95*100
  EXPECT_EQ(m.bad_iterations, 3);         // 10, 40, 60 below 80
  EXPECT_DOUBLE_EQ(m.initial_mean, (10.0 + 40.0 + 95.0) / 3.0);
  EXPECT_GT(m.initial_stddev, 0.0);
}

TEST(AnalyzeTrace, ConvergenceDefaultsToTraceLength) {
  std::vector<Measurement> trace = {{{}, 50.0, false}, {{}, 60.0, false}};
  TraceMetricsOptions opts;
  opts.convergence_fraction = 2.0;  // unreachable
  const TraceMetrics m = analyze_trace(trace, opts);
  EXPECT_EQ(m.convergence_iteration, 2);
}

}  // namespace
}  // namespace harmony

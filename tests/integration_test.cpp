// Integration tests: the full Active Harmony pipeline across modules, on
// both evaluation substrates. These mirror how the examples and bench
// harnesses compose the library, with assertions instead of tables.
#include <sstream>

#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/protocol.hpp"
#include "core/rsl.hpp"
#include "core/sensitivity.hpp"
#include "core/server.hpp"
#include "core/tuner.hpp"
#include "synth/ecommerce.hpp"
#include "websim/cluster.hpp"

namespace harmony {
namespace {

TEST(Integration, PrioritizeThenTuneSubspaceOnSynthetic) {
  synth::SyntheticSystem system;
  const ParameterSpace& space = system.space();
  synth::SyntheticObjective objective(system, system.shopping_workload());

  // Prioritize, keep the top 5, tune the sub-space, and verify the result
  // beats the default configuration by a solid margin.
  SensitivityOptions sopts;
  sopts.max_points_per_parameter = 10;
  const auto sens = analyze_sensitivity(space, objective, space.defaults(),
                                        sopts);
  const auto top = top_n_parameters(sens, 5);
  // The designed-irrelevant parameters must not make the cut.
  for (std::size_t idx : top) {
    EXPECT_NE(idx, 4u);
    EXPECT_NE(idx, 9u);
  }
  const ParameterSpace sub = space.project(top);
  SubspaceObjective sub_obj(objective, space.defaults(), top);
  TuningOptions topts;
  topts.simplex.max_evaluations = 200;
  TuningSession session(sub, sub_obj, topts);
  const TuningResult r = session.run();

  const double baseline =
      system.measure(space.defaults(), system.shopping_workload());
  EXPECT_GT(r.best_performance, baseline + 3.0);
}

TEST(Integration, ExperienceSurvivesPersistenceAndSpeedsSecondRun) {
  synth::SyntheticSystem system;
  const ParameterSpace& space = system.space();
  const WorkloadSignature workload = system.ordering_workload();
  synth::SyntheticObjective objective(system, workload);

  ServerOptions opts;
  opts.tuning.simplex.max_evaluations = 200;

  // Day 1: cold tuning, then persist the database to a stream.
  HarmonyServer day1(space, opts);
  const auto cold = day1.tune(objective, workload, "ordering");
  std::stringstream disk;
  day1.database().save(disk);

  // Day 2: a fresh server loads the database and serves a near-identical
  // workload; the warm run must have no worse bad-iteration count and must
  // retrieve the right experience.
  HarmonyServer day2(space, opts);
  day2.database().load(disk);
  ASSERT_EQ(day2.database().size(), 1u);
  WorkloadSignature nearby = workload;
  nearby[0] += 0.01;
  synth::SyntheticObjective objective2(system, nearby);
  const auto warm = day2.tune(objective2, nearby, "ordering-day2");
  ASSERT_TRUE(warm.experience_label.has_value());
  EXPECT_EQ(*warm.experience_label, "ordering");
  EXPECT_LE(analyze_trace(warm.tuning.trace).bad_iterations,
            analyze_trace(cold.tuning.trace).bad_iterations);
  EXPECT_GE(warm.tuning.best_performance,
            0.95 * cold.tuning.best_performance);
}

TEST(Integration, ProtocolSessionTunesTheSimulatedCluster) {
  websim::SimOptions sim;
  sim.measure_s = 5.0;
  sim.warmup_s = 1.0;
  sim.seed = 3;
  websim::ClusterObjective system(sim);

  HistoryDatabase db;
  const DataAnalyzer analyzer;
  proto::SessionOptions popts;
  popts.tuning.simplex.max_evaluations = 40;
  proto::ServerSession session(popts);
  proto::HarmonyClient client(host_session(session, db, analyzer));

  client.open("cluster",
              to_rsl(websim::ClusterConfig::parameter_space()));
  client.send_signature(sim.mix.signature());
  int iterations = 0;
  while (auto config = client.fetch()) {
    client.report(system.measure(*config));
    ++iterations;
    ASSERT_LE(iterations, 40);
  }
  EXPECT_GT(client.best_performance(), 0.0);
  EXPECT_EQ(client.best_configuration().size(), websim::kClusterParamCount);
  client.close();
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.record(0).label, "cluster");
  EXPECT_EQ(static_cast<int>(db.record(0).measurements.size()), iterations);
}

TEST(Integration, RestrictedRslSpaceTunesWithoutInfeasibleExplorations) {
  const ParameterSpace space = parse_rsl(R"(
    { harmonyBundle B { int {1 8 1 3} } }
    { harmonyBundle C { int {1 9-$B 1 3} } }
  )");
  // Throughput model where infeasible splits would score 0.
  FunctionObjective objective([](const Configuration& c) {
    const double d = 10.0 - c[0] - c[1];
    if (d < 1.0) return 0.0;
    return 100.0 * std::min({c[0] / 3.0, c[1] / 4.0, d / 3.0, 1.0});
  });
  RecordingObjective rec(objective);
  TuningOptions opts;
  opts.simplex.max_evaluations = 60;
  TuningSession session(space, rec, opts);
  const TuningResult r = session.run();
  for (const auto& s : rec.trace()) {
    EXPECT_TRUE(space.feasible(s.config));
    EXPECT_LE(s.config[1], 9.0 - s.config[0] + 1e-9);
  }
  EXPECT_GT(r.best_performance, 60.0);
}

TEST(Integration, SensitivityRankingIsStableAcrossSimulatorSeeds) {
  // The prioritizing tool must produce compatible rankings across two
  // independent measurement streams of the cluster (same workload).
  const ParameterSpace space = websim::ClusterConfig::parameter_space();
  SensitivityOptions sopts;
  sopts.max_points_per_parameter = 6;
  sopts.repeats = 3;

  auto top3 = [&](std::uint64_t seed) {
    websim::SimOptions sim;
    sim.measure_s = 6.0;
    sim.seed = seed;
    websim::ClusterObjective objective(sim);
    return top_n_parameters(
        analyze_sensitivity(space, objective, space.defaults(), sopts), 3);
  };
  const auto a = top3(101);
  const auto b = top3(505);
  // At least two of the top-3 parameters agree between streams.
  int overlap = 0;
  for (std::size_t x : a) {
    for (std::size_t y : b) {
      if (x == y) ++overlap;
    }
  }
  EXPECT_GE(overlap, 2);
}

}  // namespace
}  // namespace harmony

#include <sstream>

#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/server.hpp"
#include "synth/landscapes.hpp"
#include "util/error.hpp"

namespace harmony {
namespace {

TEST(Signatures, Distances) {
  EXPECT_DOUBLE_EQ(signature_distance_sq({1.0, 2.0}, {4.0, 6.0}), 25.0);
  EXPECT_DOUBLE_EQ(signature_distance({1.0, 2.0}, {4.0, 6.0}), 5.0);
  EXPECT_THROW((void)signature_distance({1.0}, {1.0, 2.0}), Error);
}

HistoryDatabase sample_db() {
  HistoryDatabase db;
  ExperienceRecord shopping;
  shopping.label = "shopping mix";
  shopping.signature = {0.8, 0.2};
  shopping.measurements = {{{1.0, 2.0}, 50.0, false},
                           {{3.0, 4.0}, 70.0, true}};
  db.add(shopping);
  ExperienceRecord ordering;
  ordering.label = "ordering";
  ordering.signature = {0.5, 0.5};
  ordering.measurements = {{{5.0, 6.0}, 60.0, false}};
  db.add(ordering);
  return db;
}

TEST(HistoryDatabase, SaveLoadRoundTrip) {
  const HistoryDatabase db = sample_db();
  std::stringstream ss;
  db.save(ss);
  HistoryDatabase loaded;
  loaded.load(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.record(0).label, "shopping mix");
  EXPECT_EQ(loaded.record(0).signature, (WorkloadSignature{0.8, 0.2}));
  ASSERT_EQ(loaded.record(0).measurements.size(), 2u);
  EXPECT_TRUE(loaded.record(0).measurements[1].estimated);
  EXPECT_EQ(loaded.record(0).measurements[1].config,
            (Configuration{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(loaded.record(1).measurements[0].performance, 60.0);
}

TEST(HistoryDatabase, LoadRejectsCorruptInput) {
  HistoryDatabase db;
  std::stringstream bad1("not a history file\n");
  EXPECT_THROW(db.load(bad1), Error);
  std::stringstream bad2("harmony-history v99\nrecords 0\n");
  EXPECT_THROW(db.load(bad2), Error);
  std::stringstream bad3("harmony-history v1\nrecords 1\n");  // truncated
  EXPECT_THROW(db.load(bad3), Error);
}

TEST(HistoryDatabase, LoadReplacesContents) {
  HistoryDatabase db = sample_db();
  std::stringstream ss("harmony-history v1\nrecords 0\n");
  db.load(ss);
  EXPECT_TRUE(db.empty());
}

TEST(HistoryDatabase, FileRoundTripAndMissingFile) {
  const HistoryDatabase db = sample_db();
  const std::string path = ::testing::TempDir() + "/harmony_history.txt";
  db.save_file(path);
  HistoryDatabase loaded;
  loaded.load_file(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_THROW(loaded.load_file("/nonexistent/dir/x.txt"), Error);
}

/// A database holding one record per signature of `known`, in order.
HistoryDatabase db_of(const std::vector<WorkloadSignature>& known) {
  HistoryDatabase db;
  for (const WorkloadSignature& sig : known) {
    ExperienceRecord rec;
    rec.signature = sig;
    db.add(std::move(rec));
  }
  return db;
}

TEST(LeastSquareClassifier, PicksNearestSignature) {
  LeastSquareClassifier c;
  const HistoryDatabase db = db_of({{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}});
  c.fit(db.signature_view());
  EXPECT_EQ(c.classify({0.9, 1.05}), 1u);
  EXPECT_EQ(c.classify({-5.0, 0.0}), 0u);
  const HistoryDatabase empty;
  c.fit(empty.signature_view());
  EXPECT_THROW((void)c.classify({0.0}), Error);
}

TEST(KMeansClassifier, AgreesWithNearestNeighbourOnSeparatedClusters) {
  KMeansClassifier km(2, /*seed=*/7);
  LeastSquareClassifier nn;
  std::vector<WorkloadSignature> known;
  for (double d : {0.0, 0.1, 0.2}) known.push_back({d, d});
  for (double d : {5.0, 5.1, 5.2}) known.push_back({d, d});
  const HistoryDatabase db = db_of(known);
  km.fit(db.signature_view());
  nn.fit(db.signature_view());
  for (const WorkloadSignature obs :
       {WorkloadSignature{0.15, 0.1}, {5.05, 5.2}, {2.0, 2.0}}) {
    // Same cluster as nearest neighbour (exact index may differ inside a
    // cluster only if distances tie; these do not).
    EXPECT_EQ(km.classify(obs), nn.classify(obs));
  }
}

TEST(KMeansClassifier, KLargerThanDataFallsBackSanely) {
  KMeansClassifier km(10);
  const HistoryDatabase db = db_of({{0.0}, {4.0}});
  km.fit(db.signature_view());
  EXPECT_EQ(km.classify({3.5}), 1u);
  EXPECT_THROW(KMeansClassifier(0), Error);
}

TEST(DecisionTreeClassifier, AgreesWithExactNearestNeighbour) {
  // The k-d tree with plane backtracking is exact: on random data it must
  // return the same index as brute-force least squares.
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<WorkloadSignature> known;
    const std::size_t n = 3 + static_cast<std::size_t>(trial) * 2;
    for (std::size_t i = 0; i < n; ++i) {
      known.push_back({rng.uniform01(), rng.uniform01(), rng.uniform01()});
    }
    const HistoryDatabase db = db_of(known);
    DecisionTreeClassifier tree(2);
    tree.fit(db.signature_view());
    LeastSquareClassifier nn;
    nn.fit(db.signature_view());
    for (int q = 0; q < 10; ++q) {
      const WorkloadSignature obs = {rng.uniform01(), rng.uniform01(),
                                     rng.uniform01()};
      const auto got = tree.classify(obs);
      const auto want = nn.classify(obs);
      EXPECT_DOUBLE_EQ(signature_distance_sq(obs, known[got]),
                       signature_distance_sq(obs, known[want]));
    }
  }
}

TEST(DecisionTreeClassifier, HandlesDegenerateData) {
  DecisionTreeClassifier tree(1);
  // All signatures identical: no split possible.
  const HistoryDatabase same = db_of({{1.0, 1.0}, {1.0, 1.0}});
  tree.fit(same.signature_view());
  EXPECT_LT(tree.classify({0.9, 1.1}), 2u);
  // Single member; a query of another arity is rejected.
  const HistoryDatabase single = db_of({{0.0}});
  tree.fit(single.signature_view());
  EXPECT_EQ(tree.classify({5.0}), 0u);
  EXPECT_THROW((void)tree.classify({0.0, 1.0}), Error);
  const HistoryDatabase empty;
  tree.fit(empty.signature_view());
  EXPECT_THROW((void)tree.classify({0.0}), Error);
  EXPECT_THROW(DecisionTreeClassifier(0), Error);
}

TEST(DecisionTreeClassifier, WorksAsAnalyzerPlugin) {
  const HistoryDatabase db = sample_db();
  DataAnalyzer analyzer(std::make_shared<DecisionTreeClassifier>());
  const auto idx = analyzer.classify(db, {0.78, 0.22});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(db.record(*idx).label, "shopping mix");
}

TEST(DataAnalyzer, CharacterizeAveragesSamples) {
  int i = 0;
  const auto sig = DataAnalyzer::characterize(
      [&]() -> WorkloadSignature {
        ++i;
        return {static_cast<double>(i), 10.0};
      },
      4);
  EXPECT_DOUBLE_EQ(sig[0], 2.5);
  EXPECT_DOUBLE_EQ(sig[1], 10.0);
  EXPECT_THROW(
      (void)DataAnalyzer::characterize([] { return WorkloadSignature{}; }, 0),
      Error);
}

TEST(DataAnalyzer, RetrievesClosestExperience) {
  const HistoryDatabase db = sample_db();
  DataAnalyzer analyzer;
  const WorkloadSignature query = {0.78, 0.22};
  const WorkloadSignature* const queries[] = {&query};
  const auto found = analyzer.retrieve_batch(db, queries);
  ASSERT_NE(found[0].record, nullptr);
  EXPECT_EQ(found[0].record->label, "shopping mix");
  EXPECT_EQ(analyzer.classify(db, {0.52, 0.48}).value(), 1u);
}

TEST(DataAnalyzer, EmptyDatabaseMeansNoExperience) {
  HistoryDatabase db;
  DataAnalyzer analyzer;
  const WorkloadSignature query = {0.5};
  const WorkloadSignature* const queries[] = {&query};
  const auto found = analyzer.retrieve_batch(db, queries);
  EXPECT_EQ(found[0].record, nullptr);
  EXPECT_TRUE(found[0].error.empty());
  EXPECT_FALSE(analyzer.classify(db, {0.5}).has_value());
}

TEST(HarmonyServer, RecordsAndReusesExperience) {
  const ParameterSpace space = synth::symmetric_space(2, 10.0, 1.0);
  auto objective = synth::sphere_objective(2.0);
  ServerOptions opts;
  opts.tuning.simplex.max_evaluations = 120;
  HarmonyServer server(space, opts);

  const WorkloadSignature sig = {1.0, 0.0};
  auto first = server.tune(objective, sig, "w1");
  EXPECT_FALSE(first.experience_label.has_value());
  EXPECT_EQ(server.database().size(), 1u);

  auto second = server.tune(objective, {0.95, 0.02}, "w2");
  ASSERT_TRUE(second.experience_label.has_value());
  EXPECT_EQ(*second.experience_label, "w1");
  EXPECT_GT(second.experience_distance, 0.0);
  EXPECT_EQ(server.database().size(), 2u);
  // Warm start must begin at a good configuration: the first live
  // measurement is the best historical vertex's neighbourhood, so the first
  // trace entry cannot be terrible.
  const auto cold = analyze_trace(first.tuning.trace);
  const auto warm = analyze_trace(second.tuning.trace);
  EXPECT_LE(warm.bad_iterations, cold.bad_iterations);
}

TEST(HarmonyServer, FirstBatchCannotMixSignatureArities) {
  // Against an empty history the batch's first request fixes the arity: a
  // later request of another arity is rejected exactly as it would be had
  // the first run been stored before it, so the history never mixes
  // arities and later requests still classify.
  const ParameterSpace space = synth::symmetric_space(1, 5.0, 1.0);
  auto objective = synth::sphere_objective(0.0);
  ServerOptions opts;
  opts.tuning.simplex.max_evaluations = 30;
  HarmonyServer server(space, opts);
  const ServeRequest requests[] = {{&objective, {0.5}, "narrow"},
                                   {&objective, {0.5, 0.5}, "wide"},
                                   {&objective, {0.25}, "narrow too"}};
  const auto results = server.serve_batch(requests);
  EXPECT_FALSE(results[0].failed);
  EXPECT_TRUE(results[1].failed);
  EXPECT_EQ(results[1].failure, "signature arity mismatch");
  EXPECT_FALSE(results[2].failed);
  ASSERT_EQ(server.database().size(), 2u);
  EXPECT_EQ(server.database().record(1).label, "narrow too");

  const auto later = server.tune(objective, {0.5}, "later");
  EXPECT_FALSE(later.failed) << later.failure;
  EXPECT_EQ(later.experience_label, "narrow");
}

TEST(HarmonyServer, CanDisableRecording) {
  const ParameterSpace space = synth::symmetric_space(1, 5.0, 1.0);
  auto objective = synth::sphere_objective(0.0);
  ServerOptions opts;
  opts.record_experience = false;
  opts.tuning.simplex.max_evaluations = 30;
  HarmonyServer server(space, opts);
  (void)server.tune(objective, {1.0}, "x");
  EXPECT_TRUE(server.database().empty());
}

}  // namespace
}  // namespace harmony

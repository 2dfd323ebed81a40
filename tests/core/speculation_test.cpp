// Speculative batched simplex: the frontier/cache driver must change when
// measurements happen, never which values the search consumes. These tests
// pin that contract with hexfloat-rendered traces (bit-identity, readable
// diffs) across initial-simplex strategies, warm starts and thread counts,
// check the frontier's structural invariants against hand-computed
// candidates, audit the speculation accounting, pin serve_batch's
// thread-count determinism and write ordering, and pin a warm-started
// session served over the protocol — in process and by a live service in
// both wire framings — to the in-process one, for every kernel.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/objective.hpp"
#include "core/protocol.hpp"
#include "core/rsl.hpp"
#include "core/search_kernels.hpp"
#include "core/server.hpp"
#include "core/simplex.hpp"
#include "core/strategies.hpp"
#include "core/tuner.hpp"
#include "net/client.hpp"
#include "net/service.hpp"
#include "synth/ecommerce.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace harmony {
namespace {

/// Hexfloat rendering of a trace: every configuration value and measured
/// performance, exactly as bits. Two traces compare equal iff they are
/// byte-identical.
std::string trace_hex(const std::vector<Measurement>& trace) {
  std::string s;
  char buf[64];
  for (const Measurement& m : trace) {
    for (double v : m.config) {
      std::snprintf(buf, sizeof buf, "%a,", v);
      s += buf;
    }
    std::snprintf(buf, sizeof buf, "=%a;", m.performance);
    s += buf;
  }
  return s;
}

class SpeculationTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(0); }
};

TuningResult run_tuning(bool speculative, unsigned threads,
                        std::shared_ptr<const InitialSimplexStrategy> strategy,
                        int budget = 120) {
  set_thread_count(threads);
  synth::SyntheticSystem system;
  synth::SyntheticObjective objective(system, system.shopping_workload());
  TuningOptions opts;
  opts.simplex.max_evaluations = budget;
  opts.strategy = std::move(strategy);
  opts.speculative = speculative;
  TuningSession session(system.space(), objective, opts);
  return session.run();
}

TEST_F(SpeculationTest, TraceBitIdenticalToSerialAcrossStrategiesAndThreads) {
  const std::vector<std::shared_ptr<const InitialSimplexStrategy>> strategies =
      {std::make_shared<EvenSpreadStrategy>(),
       std::make_shared<ExtremeCornerStrategy>()};
  for (const auto& strategy : strategies) {
    const TuningResult serial = run_tuning(false, 1, strategy);
    const TuningResult spec1 = run_tuning(true, 1, strategy);
    const TuningResult spec8 = run_tuning(true, 8, strategy);
    SCOPED_TRACE(strategy->name());
    // The golden: the serial kernel's trace in hexfloat. Speculation must
    // reproduce it byte for byte at every thread count.
    const std::string golden = trace_hex(serial.trace);
    EXPECT_EQ(trace_hex(spec1.trace), golden);
    EXPECT_EQ(trace_hex(spec8.trace), golden);
    EXPECT_EQ(spec8.best_performance, serial.best_performance);
    EXPECT_EQ(spec8.best_config, serial.best_config);
    EXPECT_EQ(spec8.evaluations, serial.evaluations);
    EXPECT_EQ(spec8.stop_reason, serial.stop_reason);
  }
}

TuningResult run_warm(bool speculative, unsigned threads,
                      bool use_recorded_values, bool estimate_missing) {
  set_thread_count(threads);
  synth::SyntheticSystem system;
  synth::SyntheticObjective objective(system, system.shopping_workload());
  // Deterministic history: a handful of measured configurations.
  Rng rng(17);
  std::vector<Measurement> history;
  for (int i = 0; i < 4; ++i) {
    const Configuration c = system.space().random_configuration(rng);
    history.push_back({c, objective.measure(c), false});
  }
  TuningOptions opts;
  opts.simplex.max_evaluations = 120;
  opts.speculative = speculative;
  TuningSession session(system.space(), objective, opts);
  session.seed(history, use_recorded_values, estimate_missing);
  return session.run();
}

TEST_F(SpeculationTest, TraceBitIdenticalToSerialAcrossWarmStarts) {
  for (const bool recorded : {true, false}) {
    for (const bool estimate : {true, false}) {
      SCOPED_TRACE(testing::Message() << "recorded=" << recorded
                                      << " estimate=" << estimate);
      const TuningResult serial = run_warm(false, 1, recorded, estimate);
      const TuningResult spec8 = run_warm(true, 8, recorded, estimate);
      EXPECT_EQ(trace_hex(spec8.trace), trace_hex(serial.trace));
      EXPECT_EQ(spec8.best_performance, serial.best_performance);
      EXPECT_EQ(spec8.stop_reason, serial.stop_reason);
    }
  }
}

TEST_F(SpeculationTest, NoisyObjectiveIsThreadCountInvariant) {
  // A stochastic objective draws its noise in frontier order, so the
  // speculative trace differs from the serial kernel — but the batch
  // contract keeps it bit-identical across thread counts.
  auto run = [](unsigned threads) {
    set_thread_count(threads);
    synth::SyntheticSystem system;
    synth::SyntheticObjective truth(system, system.shopping_workload());
    PerturbedObjective noisy(truth, 0.10, Rng(42));
    TuningOptions opts;
    opts.simplex.max_evaluations = 80;
    opts.speculative = true;
    TuningSession session(system.space(), noisy, opts);
    return session.run();
  };
  const TuningResult one = run(1);
  const TuningResult eight = run(8);
  EXPECT_EQ(trace_hex(one.trace), trace_hex(eight.trace));
}

TEST_F(SpeculationTest, FrontierMatchesHandComputedCandidates) {
  // Two parameters on [0,10] step 1. Initial vertices chosen so every
  // Nelder-Mead candidate lands exactly on the grid: sorted simplex
  // [(0,8)=10, (8,0)=5, (0,0)=1], centroid of the best two (4,4), worst
  // (0,0).
  ParameterSpace space({{"x", 0, 10, 1}, {"y", 0, 10, 1}});
  StepwiseSimplex machine(space, SimplexOptions{},
                          {{0, 8}, {8, 0}, {0, 0}});
  for (const double v : {10.0, 5.0, 1.0}) {
    ASSERT_NE(machine.peek(), nullptr);
    machine.submit(v);
  }
  const Configuration* pending = machine.peek();
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(*pending, Configuration({8, 8}));  // reflection (4,4)+(4,4)

  const std::vector<Configuration> frontier = machine.frontier();
  ASSERT_FALSE(frontier.empty());
  EXPECT_EQ(frontier.front(), *pending);

  const std::set<Configuration> got(frontier.begin(), frontier.end());
  const std::set<Configuration> want = {
      {8, 8},    // reflection (pending)
      {10, 10},  // expansion (4,4)+2*(4,4) = (12,12), snapped to the grid
      {6, 6},    // outside contraction (4,4)+0.5*(4,4)
      {2, 2},    // inside contraction (4,4)-0.5*(4,4)
      {4, 4},    // shrink of (8,0) toward best (0,8)
      {0, 4},    // shrink of (0,0) toward best (0,8)
      {1, 8},    // restart vertex: best +1 along x (-1 clamps onto best)
      {0, 9},    // restart vertex: best +1 along y
      {0, 7},    // restart vertex: best -1 along y
  };
  EXPECT_EQ(got, want);
  // Deduplicated and snapped throughout.
  EXPECT_EQ(got.size(), frontier.size());
  for (const Configuration& c : frontier) {
    EXPECT_TRUE(space.feasible(c));
  }
}

TEST_F(SpeculationTest, GoldenTrajectoryPrefixPinsTheSimplexKernel) {
  // Hexfloat golden recorded when StepwiseSimplex moved behind the
  // SearchStrategy interface: the kernel must keep replaying exactly this
  // step sequence. Two parameters on [0,10] step 1, deterministic
  // closed-form objective -((x-3.5)^2 + (y-2.5)^2), first 12 steps.
  const std::string golden =
      "0x0p+0,0x1p+3,=-0x1.54p+5;"
      "0x1p+3,0x0p+0,=-0x1.a8p+4;"
      "0x0p+0,0x0p+0,=-0x1.28p+4;"
      "0x1p+3,0x0p+0,=-0x1.a8p+4;"
      "0x1.8p+2,0x0p+0,=-0x1.9p+3;"
      "0x0p+0,0x0p+0,=-0x1.28p+4;"
      "0x1p+0,0x0p+0,=-0x1.9p+3;"
      "0x1.cp+2,0x0p+0,=-0x1.28p+4;"
      "0x1p+1,0x0p+0,=-0x1.1p+3;"
      "0x1.cp+2,0x0p+0,=-0x1.28p+4;"
      "0x1.8p+1,0x0p+0,=-0x1.ap+2;"
      "0x0p+0,0x0p+0,=-0x1.28p+4;";
  ParameterSpace space({{"x", 0, 10, 1}, {"y", 0, 10, 1}});
  StepwiseSimplex machine(space, SimplexOptions{}, {{0, 8}, {8, 0}, {0, 0}});
  std::vector<Measurement> trace;
  while (const Configuration* c = machine.peek()) {
    const double x = (*c)[0];
    const double y = (*c)[1];
    Measurement m;
    m.config = *c;
    m.performance = -((x - 3.5) * (x - 3.5) + (y - 2.5) * (y - 2.5));
    machine.submit(m.performance);
    trace.push_back(std::move(m));
    if (trace.size() >= 12) break;
  }
  EXPECT_EQ(trace_hex(trace), golden);
}

TEST_F(SpeculationTest, GoldenEndpointPinsTheDefaultSessionRun) {
  // Endpoint golden for a full default serial run on the synthetic
  // system (budget 120): the whole 120-step trajectory funnels into this
  // exact best configuration and hexfloat best value, so any divergence
  // anywhere along the run trips it.
  const TuningResult r =
      run_tuning(false, 1, std::make_shared<EvenSpreadStrategy>());
  EXPECT_EQ(r.evaluations, 120);
  EXPECT_EQ(r.stop_reason, "budget");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", r.best_performance);
  EXPECT_STREQ(buf, "0x1.7bc0172c9d03p+5");
  const Configuration want = {0x1.ap+3,  0x1.04p+6, 0x1.1p+7, 0x1.4p+8,
                              0x1.8p+3,  0x1.9p+5,  0x1.7p+7, 0x1.fp+7,
                              0x1p+3,    0x1.ep+5,  0x1.1p+7, 0x1.28p+8,
                              0x1p+4,    0x1.ep+5,  0x1.1p+7};
  EXPECT_EQ(r.best_config, want);
}

TEST_F(SpeculationTest, FrontierInvariantsHoldAlongAFullRun) {
  synth::SyntheticSystem system;
  synth::SyntheticObjective objective(system, system.shopping_workload());
  SimplexOptions opts;
  opts.max_evaluations = 150;
  EvenSpreadStrategy strategy;
  StepwiseSimplex machine(
      system.space(), opts,
      strategy.vertices(system.space(), system.space().defaults()));
  while (const Configuration* c = machine.peek()) {
    const Configuration pending = *c;
    const std::vector<Configuration> frontier = machine.frontier();
    ASSERT_FALSE(frontier.empty());
    EXPECT_EQ(frontier.front(), pending);
    std::set<Configuration> seen;
    for (const Configuration& f : frontier) {
      EXPECT_TRUE(system.space().feasible(f))
          << "frontier configuration not snapped/feasible";
      EXPECT_TRUE(seen.insert(f).second) << "duplicate in frontier";
    }
    machine.submit(objective.measure(pending));
  }
  EXPECT_TRUE(machine.frontier().empty());
}

TEST_F(SpeculationTest, SpeculationAccountingIsConsistent) {
  set_thread_count(8);
  synth::SyntheticSystem system;
  synth::SyntheticObjective truth(system, system.shopping_workload());
  RecordingObjective recorder(truth);  // counts actual live measurements
  TuningOptions opts;
  opts.simplex.max_evaluations = 120;
  opts.speculative = true;
  TuningSession session(system.space(), recorder, opts);
  const TuningResult r = session.run();
  const SpeculationStats& s = r.speculation;

  // Every kernel step consumed exactly one value.
  EXPECT_EQ(s.consumed, r.trace.size());
  EXPECT_EQ(static_cast<int>(s.consumed), r.evaluations);
  // Each batch was triggered by exactly one cache miss.
  EXPECT_EQ(s.batches, s.consumed - s.cache_hits);
  // The stats' measurement count is the objective's ground truth.
  EXPECT_EQ(s.measured, recorder.count());
  // Wasted = measured but never consumed; the consumed remainder is the
  // distinct configuration set of the trace.
  std::set<Configuration> distinct;
  for (const Measurement& m : r.trace) distinct.insert(m.config);
  EXPECT_EQ(s.measured - s.wasted, distinct.size());
  // Speculation must actually speculate on this landscape.
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_GT(s.measured, s.consumed - s.cache_hits);
  EXPECT_EQ(s.hit_rate(), static_cast<double>(s.cache_hits) /
                              static_cast<double>(s.consumed));
  EXPECT_EQ(s.waste_rate(), static_cast<double>(s.wasted) /
                                static_cast<double>(s.measured));
}

TEST_F(SpeculationTest, SerialRunReportsZeroSpeculation) {
  const TuningResult serial =
      run_tuning(false, 1, std::make_shared<EvenSpreadStrategy>());
  EXPECT_EQ(serial.speculation.batches, 0u);
  EXPECT_EQ(serial.speculation.measured, 0u);
  EXPECT_EQ(serial.speculation.consumed, 0u);
  EXPECT_EQ(serial.speculation.hit_rate(), 0.0);
  EXPECT_EQ(serial.speculation.waste_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// serve_batch

struct ServeOutcome {
  std::vector<std::string> traces;
  std::vector<std::string> labels;
  std::vector<std::string> db_labels;
};

ServeOutcome run_serve_batch(unsigned threads, bool speculative) {
  set_thread_count(threads);
  synth::SyntheticSystem system;

  ServerOptions sopts;
  sopts.tuning.simplex.max_evaluations = 60;
  sopts.tuning.speculative = speculative;
  HarmonyServer server(system.space(), sopts);

  // Prior experience for two of the three workload families.
  const std::vector<WorkloadSignature> prior = {system.browsing_workload(),
                                                system.ordering_workload()};
  for (std::size_t i = 0; i < prior.size(); ++i) {
    synth::SyntheticObjective obj(system, prior[i]);
    (void)server.tune(obj, prior[i], "prior-" + std::to_string(i));
  }

  // Four concurrent workloads, each with its own objective instance.
  std::vector<WorkloadSignature> sigs = {
      system.browsing_workload(), system.shopping_workload(),
      system.ordering_workload(),
      system.workload_at_distance(system.shopping_workload(), 0.05)};
  std::vector<synth::SyntheticObjective> objectives;
  objectives.reserve(sigs.size());
  for (const auto& sig : sigs) objectives.emplace_back(system, sig);
  std::vector<ServeRequest> requests;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    requests.push_back(
        {&objectives[i], sigs[i], "batch-" + std::to_string(i)});
  }

  const std::vector<ServedTuningResult> results =
      server.serve_batch(requests);
  ServeOutcome out;
  for (const ServedTuningResult& r : results) {
    out.traces.push_back(trace_hex(r.tuning.trace));
    out.labels.push_back(r.experience_label.value_or("<cold>"));
  }
  for (std::size_t i = 0; i < server.database().size(); ++i) {
    out.db_labels.push_back(server.database().record(i).label);
  }
  return out;
}

TEST_F(SpeculationTest, ServeBatchBitIdenticalAcrossThreadCounts) {
  for (const bool speculative : {false, true}) {
    SCOPED_TRACE(testing::Message() << "speculative=" << speculative);
    const ServeOutcome one = run_serve_batch(1, speculative);
    const ServeOutcome eight = run_serve_batch(8, speculative);
    EXPECT_EQ(one.traces, eight.traces);
    EXPECT_EQ(one.labels, eight.labels);
    EXPECT_EQ(one.db_labels, eight.db_labels);
  }
}

TEST_F(SpeculationTest, ServeBatchRetrievesAgainstEntryStateAndWritesInOrder) {
  set_thread_count(4);
  synth::SyntheticSystem system;
  ServerOptions sopts;
  sopts.tuning.simplex.max_evaluations = 40;
  HarmonyServer server(system.space(), sopts);

  // Two identical-signature requests in one batch: both must tune cold
  // (the batch's own writes are not visible during the batch), and both
  // records must land in request order afterwards.
  const WorkloadSignature sig = system.shopping_workload();
  synth::SyntheticObjective a(system, sig);
  synth::SyntheticObjective b(system, sig);
  const std::vector<ServeRequest> requests = {{&a, sig, "first"},
                                              {&b, sig, "second"}};
  const auto results = server.serve_batch(requests);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].experience_label.has_value());
  EXPECT_FALSE(results[1].experience_label.has_value());
  ASSERT_EQ(server.database().size(), 2u);
  EXPECT_EQ(server.database().record(0).label, "first");
  EXPECT_EQ(server.database().record(1).label, "second");

  // A follow-up batch sees the first batch's experience.
  synth::SyntheticObjective c(system, sig);
  const std::vector<ServeRequest> warm = {{&c, sig, "third"}};
  const auto warm_results = server.serve_batch(warm);
  ASSERT_TRUE(warm_results[0].experience_label.has_value());
  EXPECT_EQ(*warm_results[0].experience_label, "first");
}

TEST_F(SpeculationTest, TuneMatchesSingleRequestServeBatch) {
  synth::SyntheticSystem system;
  const WorkloadSignature sig = system.shopping_workload();
  auto run_one = [&](bool via_batch) {
    set_thread_count(1);
    ServerOptions sopts;
    sopts.tuning.simplex.max_evaluations = 50;
    HarmonyServer server(system.space(), sopts);
    synth::SyntheticObjective obj(system, sig);
    if (via_batch) {
      const std::vector<ServeRequest> rq = {{&obj, sig, "solo"}};
      return trace_hex(server.serve_batch(rq)[0].tuning.trace);
    }
    return trace_hex(server.tune(obj, sig, "solo").tuning.trace);
  };
  EXPECT_EQ(run_one(false), run_one(true));
}

// ---------------------------------------------------------------------------
// Served warm start == in-process warm start

/// Everything a client can observe of one session, bit for bit.
struct SessionOutcome {
  std::string trace;
  Configuration best;
  double best_performance = 0.0;
  int evaluations = 0;
  std::string stop_reason;
  std::string experience;
};

constexpr const char* kParityRsl =
    "{ harmonyBundle x { int {0 20 1 10} } } "
    "{ harmonyBundle y { int {0 20 1 10} } } "
    "{ harmonyBundle z { int {0 20 1 10} } }";

double parity_objective(const Configuration& c) {
  return 100.0 - (c[0] - 13.0) * (c[0] - 13.0) -
         2.0 * (c[1] - 6.0) * (c[1] - 6.0) - 0.5 * (c[2] - 9.0) * (c[2] - 9.0);
}

/// Two prior experiences: one recorded by a cold served run (on-grid), and
/// one hand-made whose configurations are off-grid — its two best snap to
/// the same grid point (12.4, 5.6, 8.2) and (11.6, 6.4, 7.8) -> (12, 6, 8).
const WorkloadSignature kOnGrid = {1.0, 0.0};
const WorkloadSignature kOffGrid = {0.0, 1.0};

void add_parity_history(HarmonyServer& server) {
  FunctionObjective objective(parity_objective);
  (void)server.tune(objective, kOnGrid, "on-grid");
  ExperienceRecord rec;
  rec.label = "off-grid";
  rec.signature = kOffGrid;
  Rng rng(23);
  for (int i = 0; i < 12; ++i) {
    Configuration c;
    for (int d = 0; d < 3; ++d) c.push_back(rng.uniform(0.0, 20.0));
    rec.measurements.push_back({c, 40.0 + static_cast<double>(i)});
  }
  rec.measurements.push_back({{12.4, 5.6, 8.2}, 99.0});
  rec.measurements.push_back({{11.6, 6.4, 7.8}, 98.5});
  rec.measurements.push_back({{3.0, 3.0, 3.0}, -1.0e30, false, true});
  server.database().add(std::move(rec));
}

SessionOutcome serve_in_process(HarmonyServer& server,
                                const WorkloadSignature& sig) {
  FunctionObjective objective(parity_objective);
  const std::vector<ServeRequest> rq = {{&objective, sig, "parity"}};
  const ServedTuningResult r = server.serve_batch(rq)[0];
  return {trace_hex(r.tuning.trace), r.tuning.best_config,
          r.tuning.best_performance, r.tuning.evaluations,
          r.tuning.stop_reason, r.experience_label.value_or("<cold>")};
}

proto::SessionOptions parity_session_options(const ServerOptions& sopts) {
  proto::SessionOptions opts;
  opts.tuning = sopts.tuning;
  opts.use_recorded_values = sopts.use_recorded_values;
  opts.record_experience = false;
  return opts;
}

/// One parity session driven through `transport`: HELLO naming `kernel`,
/// BUNDLES, SIGNATURE, then FETCH/REPORT until DONE, and BYE.
SessionOutcome run_parity_client(const proto::Transport& transport,
                                 const std::string& kernel,
                                 const WorkloadSignature& sig) {
  proto::HarmonyClient client(transport);
  client.open("parity", kParityRsl, kernel);
  const std::optional<std::string> label = client.send_signature(sig);
  std::vector<Measurement> trace;
  while (const std::optional<Configuration> c = client.fetch()) {
    const double v = parity_objective(*c);
    client.report(v);
    trace.push_back({*c, v});
  }
  client.close();
  return {trace_hex(trace), client.best_configuration(),
          client.best_performance(), client.evaluations(),
          client.stop_reason(), label.value_or("<cold>")};
}

SessionOutcome serve_over_protocol(HistoryDatabase& db,
                                   const ServerOptions& sopts,
                                   const WorkloadSignature& sig) {
  proto::ServerSession session(parity_session_options(sopts));
  const DataAnalyzer analyzer;
  return run_parity_client(host_session(session, db, analyzer),
                           sopts.tuning.search.kernel, sig);
}

/// One wire client of serve_over_service.
struct WireClient {
  WorkloadSignature signature;
  bool binary = false;
  SessionOutcome outcome;
  std::size_t requests = 0;
  std::string error;
};

/// Serves every client's session at once from a live net::TuningService
/// over loopback. The clients connect, meet at a barrier, then run in lock
/// step: the coalescing window is far longer than the test, so a batch
/// fires only once every open connection has a request pending, and batch
/// k holds request k of every client still open — all the SIGNATUREs are
/// classified in one coalesced batch. Returns the service's batch count.
std::uint64_t serve_over_service(HistoryDatabase& db,
                                 const ServerOptions& sopts,
                                 std::vector<WireClient>& clients) {
  DataAnalyzer analyzer;
  net::ServiceOptions so;
  so.session = parity_session_options(sopts);
  so.coalesce_window_us = 30'000'000;
  net::TuningService service(db, analyzer, nullptr, so);
  std::thread loop([&service] { service.run(); });
  std::barrier connected(static_cast<std::ptrdiff_t>(clients.size()));
  std::vector<std::thread> threads;
  for (WireClient& wc : clients) {
    threads.emplace_back([&] {
      bool arrived = false;
      try {
        net::SocketTransport socket("127.0.0.1", service.port(), wc.binary);
        arrived = true;
        connected.arrive_and_wait();
        wc.outcome = run_parity_client(
            [&](const proto::Message& m) {
              ++wc.requests;
              return socket(m);
            },
            sopts.tuning.search.kernel, wc.signature);
      } catch (const std::exception& e) {
        if (!arrived) connected.arrive_and_drop();
        wc.error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.stop();
  loop.join();
  return service.stats().batches;
}

void expect_same_session(const SessionOutcome& got,
                         const SessionOutcome& want) {
  EXPECT_EQ(got.experience, want.experience);
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.best_performance, want.best_performance);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.stop_reason, want.stop_reason);
}

TEST_F(SpeculationTest, ServedWarmStartMatchesInProcessForEveryKernel) {
  const ParameterSpace space = parse_rsl(kParityRsl);
  for (const std::string& kernel : search_kernel_names()) {
    for (const bool recorded : {true, false}) {
      for (const unsigned threads : {1u, 8u}) {
        set_thread_count(threads);
        ServerOptions sopts;
        sopts.tuning.simplex.max_evaluations = 60;
        sopts.tuning.search.kernel = kernel;
        sopts.use_recorded_values = recorded;
        HarmonyServer recorder(space, sopts);
        add_parity_history(recorder);
        // Both sides read one database that neither writes to.
        sopts.record_experience = false;
        HarmonyServer server(space, sopts);
        server.database() = recorder.database();
        for (const WorkloadSignature& sig : {kOnGrid, kOffGrid}) {
          const std::string want = sig == kOnGrid ? "on-grid" : "off-grid";
          SCOPED_TRACE(testing::Message() << kernel << " recorded=" << recorded
                                          << " threads=" << threads << " "
                                          << want);
          const SessionOutcome local = serve_in_process(server, sig);
          const SessionOutcome wire =
              serve_over_protocol(server.database(), sopts, sig);
          EXPECT_EQ(local.experience, want);
          expect_same_session(wire, local);
        }

        // The live service: one client per signature and framing, all
        // SIGNATUREs in one coalesced batch.
        std::vector<WireClient> clients;
        for (const bool binary : {false, true}) {
          for (const WorkloadSignature& sig : {kOnGrid, kOffGrid}) {
            clients.push_back({sig, binary, {}, 0, {}});
          }
        }
        const std::uint64_t batches =
            serve_over_service(server.database(), sopts, clients);
        std::size_t longest = 0;
        for (const WireClient& wc : clients) {
          SCOPED_TRACE(testing::Message()
                       << kernel << " recorded=" << recorded << " threads="
                       << threads << " served binary=" << wc.binary << " "
                       << wc.outcome.experience);
          ASSERT_EQ(wc.error, "");
          expect_same_session(wc.outcome,
                              serve_in_process(server, wc.signature));
          longest = std::max(longest, wc.requests);
        }
        EXPECT_EQ(batches, longest);  // the clients never fell out of step
      }
    }
  }
}

}  // namespace
}  // namespace harmony

// Contract-conformance battery for the SearchStrategy interface, run
// against every registered kernel (simplex, ils, evolutionary). The
// contract is what the speculation driver, the fault-tolerant path and
// serve_batch rely on, so each invariant is pinned per kernel:
//   * frontier(): non-empty while running, pending first, snapped,
//     feasible, deduplicated, empty once finished;
//   * peek(): idempotent until report(); report() guarded without an
//     outstanding measurement; result() guarded until finished;
//   * determinism: the trajectory is a pure function of (options, seed,
//     reported values) — bit-identical serial vs speculative at 1 and 8
//     threads;
//   * censoring: runs whose every measurement is censored never claim
//     perf-spread convergence;
//   * budget: max_evaluations truncates with stop_reason "budget".
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/objective.hpp"
#include "core/search_kernels.hpp"
#include "core/strategies.hpp"
#include "core/tuner.hpp"
#include "synth/ecommerce.hpp"
#include "synth/landscapes.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace harmony {
namespace {

using synth::symmetric_space;

/// Deterministic smooth objective: negative squared distance to an
/// off-grid optimum, so every kernel has a real gradient to follow.
double quadratic(const Configuration& c) {
  double v = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double d = c[i] - (1.0 + static_cast<double>(i));
    v -= d * d;
  }
  return v;
}

std::unique_ptr<SearchStrategy> build(const std::string& kernel,
                                      const ParameterSpace& space,
                                      SimplexOptions common = {}) {
  SearchSpec spec;
  spec.kernel = kernel;
  EvenSpreadStrategy strategy;
  return make_search_kernel(spec, space, common,
                            strategy.vertices(space, space.defaults()));
}

class SearchStrategyTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(0); }
};

TEST_F(SearchStrategyTest, RegistryListsEveryKernelOnce) {
  const std::vector<std::string> want = {"simplex", "ils", "evolutionary"};
  EXPECT_EQ(search_kernel_names(), want);
  for (const std::string& name : want) {
    EXPECT_TRUE(is_search_kernel(name));
    const ParameterSpace space = symmetric_space(2, 5.0, 1.0);
    EXPECT_EQ(build(name, space)->name(), name);
  }
  EXPECT_FALSE(is_search_kernel("gradient"));
  EXPECT_FALSE(is_search_kernel(""));
  SearchSpec bad;
  bad.kernel = "gradient";
  EvenSpreadStrategy strategy;
  const ParameterSpace space = symmetric_space(2, 5.0, 1.0);
  EXPECT_THROW((void)make_search_kernel(
                   bad, space, SimplexOptions{},
                   strategy.vertices(space, space.defaults())),
               Error);
}

TEST_F(SearchStrategyTest, FrontierInvariantsHoldAlongAFullRun) {
  for (const std::string& name : search_kernel_names()) {
    SCOPED_TRACE(name);
    const ParameterSpace space = symmetric_space(3, 5.0, 1.0);
    SimplexOptions common;
    common.max_evaluations = 120;
    auto kernel = build(name, space, common);
    int steps = 0;
    while (const Configuration* c = kernel->peek()) {
      const Configuration pending = *c;
      EXPECT_TRUE(space.feasible(pending));
      const std::vector<Configuration> frontier = kernel->frontier();
      ASSERT_FALSE(frontier.empty());
      EXPECT_EQ(frontier.front(), pending);
      std::set<Configuration> seen;
      for (const Configuration& f : frontier) {
        EXPECT_TRUE(space.feasible(f))
            << "frontier configuration not snapped/feasible";
        EXPECT_TRUE(seen.insert(f).second) << "duplicate in frontier";
      }
      kernel->report(quadratic(pending));
      ASSERT_LT(++steps, 2000);
    }
    EXPECT_TRUE(kernel->finished());
    EXPECT_TRUE(kernel->frontier().empty());
    EXPECT_EQ(kernel->peek(), nullptr);
    const SearchResult& r = kernel->result();
    EXPECT_TRUE(space.feasible(r.best));
    EXPECT_EQ(r.evaluations, kernel->evaluations());
    EXPECT_LE(r.evaluations, common.max_evaluations);
    EXPECT_EQ(r.evaluations, steps);
    EXPECT_FALSE(r.stop_reason.empty());
  }
}

TEST_F(SearchStrategyTest, PeekIsIdempotentAndMisusesAreGuarded) {
  for (const std::string& name : search_kernel_names()) {
    SCOPED_TRACE(name);
    const ParameterSpace space = symmetric_space(2, 5.0, 1.0);
    auto kernel = build(name, space);
    EXPECT_THROW(kernel->report(1.0), Error);  // nothing outstanding
    EXPECT_THROW((void)kernel->result(), Error);  // still running
    const Configuration* c1 = kernel->peek();
    ASSERT_NE(c1, nullptr);
    const Configuration snapshot = *c1;
    const Configuration* c2 = kernel->peek();
    ASSERT_NE(c2, nullptr);
    EXPECT_EQ(snapshot, *c2);  // repeated peek() without report()
    kernel->report(0.0);
    EXPECT_THROW(kernel->report(0.0), Error);  // nothing outstanding again
  }
}

/// Drives a kernel twice in lockstep over the same deterministic function
/// and demands identical step sequences: the trajectory must be a pure
/// function of (options, seed, reported values).
TEST_F(SearchStrategyTest, TrajectoryIsAPureFunctionOfReportedValues) {
  for (const std::string& name : search_kernel_names()) {
    SCOPED_TRACE(name);
    const ParameterSpace space = symmetric_space(3, 5.0, 1.0);
    SimplexOptions common;
    common.max_evaluations = 90;
    auto a = build(name, space, common);
    auto b = build(name, space, common);
    int steps = 0;
    for (;;) {
      const Configuration* ca = a->peek();
      const Configuration* cb = b->peek();
      ASSERT_EQ(ca == nullptr, cb == nullptr);
      if (ca == nullptr) break;
      ASSERT_EQ(*ca, *cb);
      const double v = quadratic(*ca);
      a->report(v);
      b->report(v);
      ASSERT_LT(++steps, 2000);
    }
    EXPECT_EQ(a->result().best, b->result().best);
    EXPECT_EQ(a->result().best_value, b->result().best_value);
    EXPECT_EQ(a->result().stop_reason, b->result().stop_reason);
  }
}

/// The queue-driven kernels serve repeated configurations from their memo:
/// no configuration is ever issued for live measurement twice.
TEST_F(SearchStrategyTest, QueueKernelsNeverRemeasureAConfiguration) {
  for (const std::string& name : {std::string("ils"),
                                  std::string("evolutionary")}) {
    SCOPED_TRACE(name);
    const ParameterSpace space = symmetric_space(2, 4.0, 1.0);
    SimplexOptions common;
    common.max_evaluations = 200;
    auto kernel = build(name, space, common);
    std::set<Configuration> issued;
    while (const Configuration* c = kernel->peek()) {
      EXPECT_TRUE(issued.insert(*c).second)
          << "configuration issued live twice";
      kernel->report(quadratic(*c));
    }
    EXPECT_EQ(static_cast<int>(issued.size()), kernel->evaluations());
  }
}

TEST_F(SearchStrategyTest, BudgetTruncatesEveryKernel) {
  for (const std::string& name : search_kernel_names()) {
    SCOPED_TRACE(name);
    const ParameterSpace space = symmetric_space(3, 5.0, 1.0);
    SimplexOptions common;
    common.max_evaluations = 5;  // fewer than any kernel's first round
    auto kernel = build(name, space, common);
    while (const Configuration* c = kernel->peek()) {
      kernel->report(quadratic(*c));
    }
    const SearchResult& r = kernel->result();
    EXPECT_EQ(r.evaluations, 5);
    EXPECT_EQ(r.stop_reason, "budget");
    EXPECT_FALSE(r.converged);
  }
}

/// A constant landscape converges immediately — and pins each kernel's
/// stop vocabulary: the simplex by perf-spread, the queue kernels by
/// incumbent stall.
TEST_F(SearchStrategyTest, ConstantLandscapeStopsWithConvergence) {
  for (const std::string& name : search_kernel_names()) {
    SCOPED_TRACE(name);
    const ParameterSpace space = symmetric_space(3, 5.0, 1.0);
    SimplexOptions common;
    common.max_evaluations = 400;
    auto kernel = build(name, space, common);
    while (const Configuration* c = kernel->peek()) {
      kernel->report(1.0);
    }
    const SearchResult& r = kernel->result();
    EXPECT_TRUE(r.converged);
    if (name == "simplex") {
      EXPECT_EQ(r.stop_reason, "perf-spread");
    } else {
      EXPECT_EQ(r.stop_reason, "stall");
    }
    EXPECT_LT(r.evaluations, common.max_evaluations);
  }
}

/// All-censored runs must never claim perf-spread convergence: a flat
/// spread of censored penalties is ignorance, not agreement.
TEST_F(SearchStrategyTest, AllCensoredRunsNeverClaimPerfSpread) {
  for (const std::string& name : search_kernel_names()) {
    SCOPED_TRACE(name);
    const ParameterSpace space = symmetric_space(3, 5.0, 1.0);
    SimplexOptions common;
    common.max_evaluations = 60;
    common.censored_threshold = 0.0;
    auto kernel = build(name, space, common);
    while (const Configuration* c = kernel->peek()) {
      kernel->report(-5.0);  // every measurement censored
    }
    EXPECT_NE(kernel->result().stop_reason, "perf-spread");
  }
}

// ---------------------------------------------------------------------------
// Session-level determinism: serial ≡ speculative, 1 ≡ 8 threads.

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

TuningResult run_session(const std::string& kernel, bool speculative,
                         unsigned threads) {
  set_thread_count(threads);
  synth::SyntheticSystem system;
  synth::SyntheticObjective objective(system, system.shopping_workload());
  TuningOptions opts;
  opts.simplex.max_evaluations = 80;
  opts.search.kernel = kernel;
  opts.speculative = speculative;
  TuningSession session(system.space(), objective, opts);
  return session.run();
}

TEST_F(SearchStrategyTest, SerialAndSpeculativeTracesBitIdenticalPerKernel) {
  for (const std::string& name : search_kernel_names()) {
    SCOPED_TRACE(name);
    const TuningResult serial = run_session(name, false, 1);
    const TuningResult spec1 = run_session(name, true, 1);
    const TuningResult spec8 = run_session(name, true, 8);
    const std::string golden = trace_hex(serial.trace);
    EXPECT_EQ(trace_hex(spec1.trace), golden);
    EXPECT_EQ(trace_hex(spec8.trace), golden);
    EXPECT_EQ(spec8.best_performance, serial.best_performance);
    EXPECT_EQ(spec8.best_config, serial.best_config);
    EXPECT_EQ(spec8.evaluations, serial.evaluations);
    EXPECT_EQ(spec8.stop_reason, serial.stop_reason);
  }
}

/// Model seeding consumes prior-run history without breaking any contract:
/// the seeded run stays deterministic and in bounds.
TEST_F(SearchStrategyTest, EvolutionaryModelSeedingFromHistoryIsDeterministic) {
  const ParameterSpace space = symmetric_space(3, 5.0, 1.0);
  std::vector<Measurement> history;
  Rng rng(17);
  for (int i = 0; i < 6; ++i) {
    const Configuration c = space.random_configuration(rng);
    history.push_back({c, quadratic(c)});
  }
  SearchSpec spec;
  spec.kernel = "evolutionary";
  SimplexOptions common;
  common.max_evaluations = 60;
  EvenSpreadStrategy strategy;
  auto run_once = [&]() {
    auto kernel = make_search_kernel(
        spec, space, common, strategy.vertices(space, space.defaults()), {},
        history);
    while (const Configuration* c = kernel->peek()) {
      EXPECT_TRUE(space.feasible(*c));
      kernel->report(quadratic(*c));
    }
    return kernel->result();
  };
  const SearchResult a = run_once();
  const SearchResult b = run_once();
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
}

}  // namespace
}  // namespace harmony

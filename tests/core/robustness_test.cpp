// Fault-tolerant measurement path: the robustness battery.
//
// A live measurement can hang, crash or answer with garbage; the fallible
// path (Objective::try_measure*, RetryPolicy, censored penalties) must keep
// the tuning layers running — deterministically. These tests pin:
//   * the fallible-path defaults wrapping every existing objective,
//   * the deterministic fault injector (seeded schedules, replay, order
//     independence in per-config mode),
//   * the retry drivers' accounting identity
//       attempts == successes + retries + exhausted,
//   * censored-penalty simplex invariants (the search survives failures and
//     never "converges" onto a simplex of penalties),
//   * bit-identity of retry-enabled runs with zero faults against the
//     legacy infallible path,
//   * the session's width-1 leg making exactly the Objective calls of a
//     measure_with_retry loop (enabled) or a measure() loop (disabled),
//   * a randomized differential: seeds x fault rates x injection modes x
//     thread counts, trajectories and retry counters bit-identical,
//   * serve_batch isolation: a failing request — a throwing objective or a
//     signature the up-front batch classification rejects — is marked and
//     suppressed from the experience store while its siblings' results
//     stay byte-identical.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/faults.hpp"
#include "core/objective.hpp"
#include "core/parallel_eval.hpp"
#include "core/server.hpp"
#include "core/simplex.hpp"
#include "core/strategies.hpp"
#include "core/tuner.hpp"
#include "synth/ecommerce.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace harmony {
namespace {

/// Hexfloat rendering of a trace (value bits exactly); censored entries are
/// flagged so the comparison covers the censoring metadata too.
std::string trace_hex(const std::vector<Measurement>& trace) {
  std::string s;
  char buf[64];
  for (const Measurement& m : trace) {
    for (double v : m.config) {
      std::snprintf(buf, sizeof buf, "%a,", v);
      s += buf;
    }
    std::snprintf(buf, sizeof buf, "=%a%s;", m.performance,
                  m.censored ? "!" : "");
    s += buf;
  }
  return s;
}

std::string stats_str(const RetryStats& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "a=%zu s=%zu r=%zu x=%zu t=%zu e=%zu i=%zu",
                r.attempts, r.successes, r.retries, r.exhausted, r.timeouts,
                r.errors, r.invalids);
  return buf;
}

/// The accounting identities every retry driver must maintain.
void expect_accounting_identity(const RetryStats& r) {
  EXPECT_EQ(r.attempts, r.successes + r.retries + r.exhausted)
      << stats_str(r);
  EXPECT_EQ(r.timeouts + r.errors + r.invalids, r.attempts - r.successes)
      << stats_str(r);
}

ParameterSpace small_space() {
  ParameterSpace space;
  space.add({"x", 0, 20, 1, 10});
  space.add({"y", 0, 20, 1, 10});
  return space;
}

class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(0); }
};

// ---------------------------------------------------------------------------
// Fallible-path defaults

TEST_F(RobustnessTest, DefaultTryMeasureWrapsInfalliblePath) {
  const ParameterSpace space = small_space();
  FunctionObjective ok([](const Configuration& c) { return c[0] + c[1]; });
  FunctionObjective throws([](const Configuration&) -> double {
    throw Error("measurement crashed");
  });
  FunctionObjective nan([](const Configuration&) {
    return std::numeric_limits<double>::quiet_NaN();
  });

  const Configuration c = space.defaults();
  const MeasurementOutcome good = ok.try_measure(c);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value, 20.0);

  const MeasurementOutcome err = throws.try_measure(c);
  EXPECT_EQ(err.status, MeasurementStatus::kError);
  EXPECT_EQ(err.message, "measurement crashed");

  const MeasurementOutcome inv = nan.try_measure(c);
  EXPECT_EQ(inv.status, MeasurementStatus::kInvalid);
}

TEST_F(RobustnessTest, DefaultTryMeasureBatchMarksWholeBatchOnThrow) {
  // A bare Objective subclass keeps the base-class try_measure_batch, which
  // routes through the infallible measure_batch and cannot attribute a
  // thrown error to one item.
  class BareObjective final : public Objective {
   public:
    double measure(const Configuration&) override {
      if (++calls_ == 2) throw Error("second call crashed");
      return 1.0;
    }

   private:
    int calls_ = 0;
  };
  const ParameterSpace space = small_space();
  BareObjective flaky;
  const std::vector<Configuration> configs(3, space.defaults());
  std::vector<MeasurementOutcome> out(configs.size());
  flaky.try_measure_batch(configs, out);
  for (const MeasurementOutcome& o : out) {
    EXPECT_EQ(o.status, MeasurementStatus::kError);
  }
}

TEST_F(RobustnessTest, FunctionObjectiveAttributesBatchFailuresPerItem) {
  const ParameterSpace space = small_space();
  // Per-item callables fail independently: the crashing configuration is the
  // only one marked, its siblings keep their values (both fan-out modes).
  for (const bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "serial");
    FunctionObjective objective(
        [](const Configuration& c) -> double {
          if (c[0] > 14.0) throw Error("region offline");
          return c[0];
        },
        "performance", concurrent);
    const std::vector<Configuration> configs = {
        space.snap({1, 0}), space.snap({20, 0}), space.snap({3, 0})};
    std::vector<MeasurementOutcome> out(configs.size());
    objective.try_measure_batch(configs, out);
    EXPECT_TRUE(out[0].ok());
    EXPECT_EQ(out[0].value, 1.0);
    EXPECT_EQ(out[1].status, MeasurementStatus::kError);
    EXPECT_EQ(out[1].message, "region offline");
    EXPECT_TRUE(out[2].ok());
    EXPECT_EQ(out[2].value, 3.0);
  }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection

TEST_F(RobustnessTest, FaultInjectorReplaysItsSchedule) {
  const ParameterSpace space = small_space();
  FunctionObjective inner([](const Configuration& c) { return c[0]; });
  FaultInjectionOptions opts;
  opts.timeout_rate = 0.2;
  opts.error_rate = 0.2;
  opts.invalid_rate = 0.2;
  opts.seed = 42;
  FaultInjectingObjective faulty(inner, opts);

  std::vector<Configuration> configs;
  for (double x = 0; x <= 20; ++x) configs.push_back(space.snap({x, x}));

  auto schedule = [&]() {
    std::string s;
    for (const Configuration& c : configs) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        s += static_cast<char>('0' +
                               static_cast<int>(faulty.try_measure(c).status));
      }
    }
    return s;
  };
  const std::string first = schedule();
  EXPECT_NE(first.find_first_not_of('0'), std::string::npos)
      << "rates 0.6 over 63 draws should inject something";
  faulty.reset();
  EXPECT_EQ(schedule(), first) << "same seed must replay the same schedule";
  EXPECT_EQ(faulty.counters().faults(),
            faulty.counters().timeouts + faulty.counters().errors +
                faulty.counters().invalids);

  FaultInjectionOptions other = opts;
  other.seed = 43;
  FaultInjectingObjective faulty2(inner, other);
  std::string second;
  for (const Configuration& c : configs) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      second += static_cast<char>(
          '0' + static_cast<int>(faulty2.try_measure(c).status));
    }
  }
  EXPECT_NE(second, first) << "different seeds must draw different schedules";
}

TEST_F(RobustnessTest, PerConfigModeIsOrderFree) {
  const ParameterSpace space = small_space();
  FunctionObjective inner([](const Configuration& c) { return c[0]; });
  FaultInjectionOptions opts;
  opts.error_rate = 0.5;
  opts.seed = 7;
  opts.mode = FaultInjectionOptions::Mode::kPerConfig;

  std::vector<Configuration> configs;
  for (double x = 0; x <= 20; ++x) configs.push_back(space.snap({x, 20 - x}));

  // Forward order vs reverse order: the (config, attempt) -> status map must
  // agree, because the decision is a pure function of (seed, config,
  // attempt), never of when the attempt happens.
  FaultInjectingObjective forward(inner, opts);
  FaultInjectingObjective reverse(inner, opts);
  std::vector<std::vector<MeasurementStatus>> fwd(configs.size());
  for (int attempt = 0; attempt < 4; ++attempt) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      fwd[i].push_back(forward.try_measure(configs[i]).status);
    }
  }
  for (std::size_t i = configs.size(); i-- > 0;) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(reverse.try_measure(configs[i]).status,
                fwd[i][static_cast<std::size_t>(attempt)])
          << "config " << i << " attempt " << attempt;
    }
  }
}

TEST_F(RobustnessTest, FaultCapBoundsInjectionsPerConfig) {
  const ParameterSpace space = small_space();
  FunctionObjective inner([](const Configuration& c) { return c[0]; });
  FaultInjectionOptions opts;
  opts.error_rate = 1.0;
  opts.max_faults_per_key = 2;
  FaultInjectingObjective faulty(inner, opts);
  const Configuration c = space.defaults();
  EXPECT_FALSE(faulty.try_measure(c).ok());
  EXPECT_FALSE(faulty.try_measure(c).ok());
  EXPECT_TRUE(faulty.try_measure(c).ok()) << "cap reached: must pass through";
  EXPECT_EQ(faulty.counters().errors, 2u);
}

// ---------------------------------------------------------------------------
// Retry drivers

TEST_F(RobustnessTest, MeasureWithRetryAccountingIdentity) {
  const ParameterSpace space = small_space();
  FunctionObjective inner([](const Configuration& c) { return c[0] + c[1]; });
  FaultInjectionOptions fopts;
  fopts.timeout_rate = 0.15;
  fopts.error_rate = 0.15;
  fopts.invalid_rate = 0.15;
  fopts.seed = 11;
  FaultInjectingObjective faulty(inner, fopts);

  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryStats stats;
  std::size_t measurements = 0;
  for (double x = 0; x <= 20; ++x) {
    for (double y = 0; y <= 20; y += 5) {
      const Configuration c = space.snap({x, y});
      const MeasurementOutcome o =
          measure_with_retry(faulty, c, policy, stats);
      if (o.ok()) {
        EXPECT_EQ(o.value, c[0] + c[1]);
      }
      ++measurements;
    }
  }
  expect_accounting_identity(stats);
  EXPECT_EQ(stats.successes + stats.exhausted, measurements);
  EXPECT_GT(stats.retries, 0u) << "45% fault rate must trigger retries";
  EXPECT_EQ(stats.attempts, faulty.counters().calls);
}

TEST_F(RobustnessTest, BatchRetryMatchesSerialRetry) {
  const ParameterSpace space = small_space();
  FunctionObjective inner([](const Configuration& c) { return c[0] - c[1]; });
  FaultInjectionOptions fopts;
  fopts.error_rate = 0.4;
  fopts.seed = 5;  // per-config mode: order-free, so serial == batch
  RetryPolicy policy;
  policy.max_attempts = 3;

  std::vector<Configuration> configs;
  for (double x = 0; x <= 20; ++x) configs.push_back(space.snap({x, x / 2}));

  FaultInjectingObjective serial_faulty(inner, fopts);
  RetryStats serial_stats;
  std::vector<double> serial_values;
  std::vector<bool> serial_censored;
  for (const Configuration& c : configs) {
    const MeasurementOutcome o =
        measure_with_retry(serial_faulty, c, policy, serial_stats);
    serial_values.push_back(o.ok() ? o.value : policy.censored_value);
    serial_censored.push_back(!o.ok());
  }

  FaultInjectingObjective batch_faulty(inner, fopts);
  RetryStats batch_stats;
  std::vector<double> batch_values(configs.size());
  std::vector<std::uint8_t> batch_censored;
  measure_batch_with_retry(batch_faulty, configs, policy, batch_values,
                           &batch_censored, batch_stats);

  expect_accounting_identity(serial_stats);
  expect_accounting_identity(batch_stats);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(batch_values[i], serial_values[i]) << "config " << i;
    EXPECT_EQ(batch_censored[i] != 0, serial_censored[i]) << "config " << i;
  }
  EXPECT_EQ(batch_stats, serial_stats);
}

TEST_F(RobustnessTest, DisabledPolicyBatchKeepsLegacyPath) {
  const ParameterSpace space = small_space();
  int calls = 0;
  FunctionObjective inner([&](const Configuration& c) {
    ++calls;
    return c[0];
  });
  const std::vector<Configuration> configs(4, space.defaults());
  std::vector<double> out(configs.size());
  std::vector<std::uint8_t> censored;
  RetryStats stats;
  measure_batch_with_retry(inner, configs, RetryPolicy{}, out, &censored,
                           stats);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(censored, std::vector<std::uint8_t>(4, 0));
  EXPECT_EQ(stats.attempts, 4u);
  EXPECT_EQ(stats.successes, 4u);
  EXPECT_EQ(stats.retries + stats.exhausted, 0u);
}

TEST_F(RobustnessTest, ZeroDeadlineStopsRetriesDeterministically) {
  const ParameterSpace space = small_space();
  FunctionObjective broken([](const Configuration&) -> double {
    throw Error("always down");
  });
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.deadline_ms = 0.0;  // already elapsed: no retry may be issued
  RetryStats stats;
  const MeasurementOutcome o =
      measure_with_retry(broken, space.defaults(), policy, stats);
  EXPECT_FALSE(o.ok());
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.exhausted, 1u);
  expect_accounting_identity(stats);
}

TEST_F(RobustnessTest, BackoffIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.backoff_initial_ms = 10.0;
  policy.backoff_multiplier = 2.0;
  const Configuration c = {3.0, 4.0};
  EXPECT_EQ(policy.backoff_ms(c, 2), 10.0);
  EXPECT_EQ(policy.backoff_ms(c, 3), 20.0);
  EXPECT_EQ(policy.backoff_ms(c, 4), 40.0);

  policy.backoff_jitter = 0.5;
  const double jittered = policy.backoff_ms(c, 3);
  EXPECT_EQ(policy.backoff_ms(c, 3), jittered)
      << "jitter must be a pure function of (seed, config, attempt)";
  EXPECT_GE(jittered, 10.0);
  EXPECT_LE(jittered, 30.0);
  EXPECT_NE(policy.backoff_ms(c, 4), 2.0 * jittered)
      << "distinct attempts draw distinct jitter";
}

TEST_F(RobustnessTest, RetryStatsMergeSumsEveryCounter) {
  RetryStats a{10, 6, 3, 1, 2, 1, 1};
  const RetryStats b{5, 4, 1, 0, 0, 1, 0};
  a.merge(b);
  EXPECT_EQ(a, (RetryStats{15, 10, 4, 1, 2, 2, 1}));
  expect_accounting_identity(a);
}

// ---------------------------------------------------------------------------
// Tuning with faults: censored-penalty simplex invariants

/// Objective with a "broken region": configurations with x > 14 crash.
/// Outside the region the landscape is a smooth peak at (10, 10).
FunctionObjective::Fn broken_region_fn() {
  return [](const Configuration& c) -> double {
    if (c[0] > 14.0) throw Error("region offline");
    return 100.0 - (c[0] - 10.0) * (c[0] - 10.0) -
           (c[1] - 10.0) * (c[1] - 10.0);
  };
}

TEST_F(RobustnessTest, CensoredPenaltyKeepsSimplexAwayFromBrokenRegion) {
  const ParameterSpace space = small_space();
  for (const bool speculative : {false, true}) {
    SCOPED_TRACE(speculative ? "speculative" : "serial");
    FunctionObjective objective(broken_region_fn());
    TuningOptions opts;
    opts.simplex.max_evaluations = 120;
    opts.speculative = speculative;
    opts.retry.max_attempts = 2;
    opts.retry.tolerate_failures = true;
    opts.strategy = std::make_shared<ExtremeCornerStrategy>();
    TuningSession session(space, objective, opts);
    const TuningResult result = session.run();

    // The corner strategy starts with vertices inside the broken region, so
    // censoring must actually fire...
    EXPECT_GT(result.retry.exhausted, 0u);
    std::size_t censored_entries = 0;
    for (const Measurement& m : result.trace) {
      if (m.censored) {
        ++censored_entries;
        EXPECT_EQ(m.performance, opts.retry.censored_value);
        EXPECT_GT(m.config[0], 14.0);
      }
    }
    if (speculative) {
      // Speculated-but-unconsumed candidates never enter the trace, so the
      // trace may hold fewer censored entries than retries were exhausted.
      EXPECT_GT(censored_entries, 0u);
      EXPECT_LE(censored_entries, result.retry.exhausted);
    } else {
      EXPECT_EQ(censored_entries, result.retry.exhausted);
    }
    expect_accounting_identity(result.retry);

    // ...and the search must still find the real optimum outside it.
    EXPECT_LE(result.best_config[0], 14.0);
    EXPECT_GT(result.best_performance, 90.0);
  }
}

TEST_F(RobustnessTest, AllCensoredRunNeverClaimsPerfSpreadConvergence) {
  const ParameterSpace space = small_space();
  FunctionObjective dead([](const Configuration&) -> double {
    throw Error("system down");
  });
  TuningOptions opts;
  opts.simplex.max_evaluations = 30;
  opts.retry.max_attempts = 2;
  opts.retry.tolerate_failures = true;
  TuningSession session(space, dead, opts);
  const TuningResult result = session.run();

  for (const Measurement& m : result.trace) EXPECT_TRUE(m.censored);
  EXPECT_EQ(result.retry.successes, 0u);
  EXPECT_GT(result.retry.exhausted, 0u);
  // A simplex of identical penalties has zero perf spread; without the
  // censored_threshold suspension it would "converge" after the initial
  // vertices. It must keep searching until another criterion stops it.
  EXPECT_NE(result.stop_reason, "perf-spread");
  expect_accounting_identity(result.retry);
}

// ---------------------------------------------------------------------------
// Zero-fault bit-identity: an enabled policy without faults is invisible

TEST_F(RobustnessTest, ZeroFaultRetryRunIsBitIdenticalToLegacyRun) {
  synth::SyntheticSystem system;
  auto run = [&](bool speculative, bool retry_enabled, unsigned threads) {
    set_thread_count(threads);
    synth::SyntheticObjective objective(system, system.shopping_workload());
    TuningOptions opts;
    opts.simplex.max_evaluations = 120;
    opts.speculative = speculative;
    if (retry_enabled) opts.retry.max_attempts = 3;
    TuningSession session(system.space(), objective, opts);
    return session.run();
  };

  const TuningResult legacy_serial = run(false, false, 1);
  const std::string golden = trace_hex(legacy_serial.trace);

  const TuningResult retry_serial = run(false, true, 1);
  EXPECT_EQ(trace_hex(retry_serial.trace), golden);
  EXPECT_EQ(retry_serial.stop_reason, legacy_serial.stop_reason);
  EXPECT_EQ(retry_serial.retry.attempts, retry_serial.retry.successes);
  EXPECT_EQ(retry_serial.retry.exhausted + retry_serial.retry.retries, 0u);

  for (const unsigned threads : {1u, 8u}) {
    const TuningResult spec = run(true, true, threads);
    EXPECT_EQ(trace_hex(spec.trace), golden) << threads << " threads";
    EXPECT_EQ(spec.retry.attempts, spec.retry.successes);
  }
}

// ---------------------------------------------------------------------------
// Fault recovery reproduces the fault-free trajectory

TEST_F(RobustnessTest, RecoveredFaultsReproduceTheFaultFreeTrajectory) {
  synth::SyntheticSystem system;
  auto run = [&](bool speculative, bool inject, unsigned threads) {
    set_thread_count(threads);
    synth::SyntheticObjective objective(system, system.shopping_workload());
    // Every configuration's first attempt fails, every retry succeeds: the
    // recovered values equal the fault-free ones, so the whole trajectory
    // must match the clean run bit for bit.
    FaultInjectionOptions fopts;
    fopts.error_rate = 1.0;
    fopts.max_faults_per_key = 1;
    FaultInjectingObjective faulty(objective, fopts);
    TuningOptions opts;
    opts.simplex.max_evaluations = 120;
    opts.speculative = speculative;
    opts.retry.max_attempts = 3;
    Objective& target = inject ? static_cast<Objective&>(faulty) : objective;
    TuningSession session(system.space(), target, opts);
    return session.run();
  };

  const TuningResult clean = run(false, false, 1);
  const std::string golden = trace_hex(clean.trace);

  const TuningResult serial_faulty = run(false, true, 1);
  EXPECT_EQ(trace_hex(serial_faulty.trace), golden);
  EXPECT_GT(serial_faulty.retry.retries, 0u);
  EXPECT_EQ(serial_faulty.retry.exhausted, 0u);
  expect_accounting_identity(serial_faulty.retry);

  for (const unsigned threads : {1u, 8u}) {
    const TuningResult spec_faulty = run(true, true, threads);
    EXPECT_EQ(trace_hex(spec_faulty.trace), golden) << threads << " threads";
    EXPECT_EQ(spec_faulty.retry.exhausted, 0u);
    expect_accounting_identity(spec_faulty.retry);
  }
}

// ---------------------------------------------------------------------------
// Randomized differential: seeds x rates x modes x thread counts

TEST_F(RobustnessTest, FaultyTrajectoriesAreThreadCountInvariant) {
  synth::SyntheticSystem system;
  struct Run {
    std::string trace;
    RetryStats stats;
    std::string stop;
  };
  auto run = [&](std::uint64_t seed, double rate,
                 FaultInjectionOptions::Mode mode, bool speculative,
                 unsigned threads) {
    set_thread_count(threads);
    synth::SyntheticObjective objective(system, system.shopping_workload());
    FaultInjectionOptions fopts;
    fopts.timeout_rate = rate / 2.0;
    fopts.error_rate = rate / 2.0;
    fopts.seed = seed;
    fopts.mode = mode;
    FaultInjectingObjective faulty(objective, fopts);
    TuningOptions opts;
    opts.simplex.max_evaluations = 80;
    opts.speculative = speculative;
    opts.retry.max_attempts = 4;
    opts.retry.tolerate_failures = true;
    TuningSession session(system.space(), faulty, opts);
    const TuningResult r = session.run();
    return Run{trace_hex(r.trace), r.retry, r.stop_reason};
  };

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const double rate : {0.0, 0.2, 0.5}) {
      for (const auto mode : {FaultInjectionOptions::Mode::kPerConfig,
                              FaultInjectionOptions::Mode::kPerCall}) {
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " rate=" << rate << " mode="
                     << (mode == FaultInjectionOptions::Mode::kPerConfig
                             ? "per-config"
                             : "per-call"));
        // The speculative driver must be bit-identical at every thread
        // count: batches fan out differently, values may not change.
        const Run spec1 = run(seed, rate, mode, true, 1);
        const Run spec8 = run(seed, rate, mode, true, 8);
        EXPECT_EQ(spec8.trace, spec1.trace);
        EXPECT_EQ(spec8.stats, spec1.stats)
            << stats_str(spec8.stats) << " vs " << stats_str(spec1.stats);
        EXPECT_EQ(spec8.stop, spec1.stop);
        expect_accounting_identity(spec1.stats);

        // The serial fault-tolerant driver never touches the pool, but pin
        // it anyway: thread count must not leak into its results.
        const Run serial1 = run(seed, rate, mode, false, 1);
        const Run serial8 = run(seed, rate, mode, false, 8);
        EXPECT_EQ(serial8.trace, serial1.trace);
        EXPECT_EQ(serial8.stats, serial1.stats);
        expect_accounting_identity(serial1.stats);

        if (mode == FaultInjectionOptions::Mode::kPerConfig && rate == 0.0) {
          // No faults: serial and speculative walk the same trajectory.
          EXPECT_EQ(spec1.trace, serial1.trace);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// serve_batch isolation

std::unique_ptr<synth::SyntheticObjective> make_objective(
    const synth::SyntheticSystem& system) {
  return std::make_unique<synth::SyntheticObjective>(
      system, system.shopping_workload());
}

TEST_F(RobustnessTest, ServeBatchIsolatesAThrowingRequest) {
  synth::SyntheticSystem system;
  FunctionObjective dead([](const Configuration&) -> double {
    throw Error("workload crashed");
  });

  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    set_thread_count(threads);

    // Reference batch: the two healthy workloads alone.
    ServerOptions sopts;
    sopts.tuning.simplex.max_evaluations = 60;
    HarmonyServer reference(system.space(), sopts);
    auto ref_a = make_objective(system);
    auto ref_b = make_objective(system);
    const std::vector<ServeRequest> ref_requests = {
        {ref_a.get(), {1.0, 0.0}, "a"},
        {ref_b.get(), {0.0, 1.0}, "b"},
    };
    const auto ref = reference.serve_batch(ref_requests);

    // Same workloads with a crashing request wedged between them.
    HarmonyServer server(system.space(), sopts);
    auto obj_a = make_objective(system);
    auto obj_b = make_objective(system);
    const std::vector<ServeRequest> requests = {
        {obj_a.get(), {1.0, 0.0}, "a"},
        {&dead, {0.5, 0.5}, "dead"},
        {obj_b.get(), {0.0, 1.0}, "b"},
    };
    const auto results = server.serve_batch(requests);
    ASSERT_EQ(results.size(), 3u);

    // The failing request is marked, carries the reason, and nothing else.
    EXPECT_TRUE(results[1].failed);
    EXPECT_NE(results[1].failure.find("workload crashed"), std::string::npos);
    EXPECT_FALSE(results[0].failed);
    EXPECT_FALSE(results[2].failed);

    // Siblings are byte-identical to the batch without the failure.
    EXPECT_EQ(trace_hex(results[0].tuning.trace),
              trace_hex(ref[0].tuning.trace));
    EXPECT_EQ(trace_hex(results[2].tuning.trace),
              trace_hex(ref[1].tuning.trace));

    // Experience writes: the failed run is suppressed, order preserved.
    ASSERT_EQ(server.database().size(), 2u);
    EXPECT_EQ(server.database().record(0).label, "a");
    EXPECT_EQ(server.database().record(1).label, "b");
  }
}

TEST_F(RobustnessTest, ServeBatchMarksExhaustedRunsFailedAndUnrecorded) {
  synth::SyntheticSystem system;
  FunctionObjective dead([](const Configuration&) -> double {
    throw Error("system down");
  });
  ServerOptions sopts;
  sopts.tuning.simplex.max_evaluations = 20;
  sopts.tuning.retry.max_attempts = 2;
  sopts.tuning.retry.tolerate_failures = true;
  HarmonyServer server(system.space(), sopts);

  auto healthy = make_objective(system);
  const std::vector<ServeRequest> requests = {
      {healthy.get(), {1.0, 0.0}, "healthy"},
      {&dead, {0.0, 1.0}, "dead"},
  };
  const auto results = server.serve_batch(requests);

  // The dead request ran to completion on censored penalties — no throw —
  // but its exhausted retries mark it failed and keep it out of the store.
  EXPECT_FALSE(results[0].failed);
  EXPECT_TRUE(results[1].failed);
  EXPECT_NE(results[1].failure.find("exhausted"), std::string::npos);
  EXPECT_GT(results[1].tuning.retry.exhausted, 0u);
  ASSERT_EQ(server.database().size(), 1u);
  EXPECT_EQ(server.database().record(0).label, "healthy");
}

std::shared_ptr<Classifier> make_classifier(int kind) {
  switch (kind) {
    case 0: return std::make_shared<LeastSquareClassifier>();
    case 1: return std::make_shared<KMeansClassifier>(2, 7);
    default: return std::make_shared<DecisionTreeClassifier>(2);
  }
}

TEST_F(RobustnessTest, ServeBatchIsolatesRejectedSignatures) {
  // The batch is classified up front, before any session starts; a request
  // the analyzer rejects must fail alone, with its reason, and leave its
  // warm-started siblings byte-identical to the batch without it.
  synth::SyntheticSystem system;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ServerOptions sopts;
  sopts.tuning.simplex.max_evaluations = 40;

  // Two prior runs, so every healthy request below warm-starts.
  const auto with_history = [&](HarmonyServer& server, int kind) {
    server.set_analyzer(DataAnalyzer(make_classifier(kind)));
    auto a = make_objective(system);
    auto b = make_objective(system);
    const std::vector<ServeRequest> prior = {{a.get(), {1.0, 0.0}, "pa"},
                                             {b.get(), {0.0, 1.0}, "pb"}};
    (void)server.serve_batch(prior);
    ASSERT_EQ(server.database().size(), 2u);
  };

  for (const int kind : {0, 1, 2}) {
    for (const unsigned threads : {1u, 8u}) {
      SCOPED_TRACE(testing::Message() << "classifier " << kind << ", "
                                      << threads << " threads");
      set_thread_count(threads);

      HarmonyServer reference(system.space(), sopts);
      with_history(reference, kind);
      auto ref_a = make_objective(system);
      auto ref_b = make_objective(system);
      const std::vector<ServeRequest> ref_requests = {
          {ref_a.get(), {0.9, 0.1}, "a"},
          {ref_b.get(), {0.2, 0.8}, "b"},
      };
      const auto ref = reference.serve_batch(ref_requests);

      HarmonyServer server(system.space(), sopts);
      with_history(server, kind);
      auto obj_a = make_objective(system);
      auto obj_b = make_objective(system);
      auto obj_nan = make_objective(system);
      auto obj_inf = make_objective(system);
      auto obj_wide = make_objective(system);
      const std::vector<ServeRequest> requests = {
          {obj_nan.get(), {nan, 0.5}, "nan"},
          {obj_a.get(), {0.9, 0.1}, "a"},
          {obj_wide.get(), {0.5, 0.5, 0.5}, "wide"},
          {obj_b.get(), {0.2, 0.8}, "b"},
          {obj_inf.get(), {0.5, -inf}, "inf"},
      };
      const auto results = server.serve_batch(requests);
      ASSERT_EQ(results.size(), 5u);

      for (const std::size_t bad : {0u, 2u, 4u}) {
        EXPECT_TRUE(results[bad].failed);
        EXPECT_TRUE(results[bad].tuning.trace.empty());
        EXPECT_FALSE(results[bad].experience_label.has_value());
      }
      EXPECT_NE(results[0].failure.find("non-finite"), std::string::npos);
      EXPECT_NE(results[2].failure.find("arity"), std::string::npos);
      EXPECT_NE(results[4].failure.find("non-finite"), std::string::npos);

      for (const auto& [got, want] :
           {std::pair{&results[1], &ref[0]}, std::pair{&results[3], &ref[1]}}) {
        EXPECT_FALSE(got->failed);
        ASSERT_TRUE(got->experience_label.has_value());
        EXPECT_EQ(got->experience_label, want->experience_label);
        EXPECT_EQ(got->experience_distance, want->experience_distance);
        EXPECT_EQ(trace_hex(got->tuning.trace), trace_hex(want->tuning.trace));
      }

      // Only the healthy runs were written back, in request order.
      ASSERT_EQ(server.database().size(), 4u);
      EXPECT_EQ(server.database().record(2).label, "a");
      EXPECT_EQ(server.database().record(3).label, "b");
    }
  }
}

TEST_F(RobustnessTest, ServeBatchFailsEveryRequestAgainstAMixedArityHistory) {
  synth::SyntheticSystem system;
  ServerOptions sopts;
  sopts.tuning.simplex.max_evaluations = 20;
  for (const int kind : {0, 1, 2}) {
    for (const unsigned threads : {1u, 8u}) {
      SCOPED_TRACE(testing::Message() << "classifier " << kind << ", "
                                      << threads << " threads");
      set_thread_count(threads);
      HarmonyServer server(system.space(), sopts);
      server.set_analyzer(DataAnalyzer(make_classifier(kind)));
      ExperienceRecord wide;
      wide.signature = {1.0, 0.0};
      server.database().add(wide);
      ExperienceRecord narrow;
      narrow.signature = {1.0};
      server.database().add(narrow);

      auto a = make_objective(system);
      auto b = make_objective(system);
      const std::vector<ServeRequest> requests = {{a.get(), {1.0, 0.0}, "a"},
                                                  {b.get(), {1.0}, "b"}};
      std::vector<ServedTuningResult> results;
      ASSERT_NO_THROW(results = server.serve_batch(requests));
      for (const ServedTuningResult& r : results) {
        EXPECT_TRUE(r.failed);
        EXPECT_NE(r.failure.find("mixes signature arities"),
                  std::string::npos);
      }
      EXPECT_EQ(server.database().size(), 2u);
    }
  }
}

// ---------------------------------------------------------------------------
// ParallelEvaluator surface

TEST_F(RobustnessTest, EvaluatorExposesPolicyAndAccumulatesStats) {
  const ParameterSpace space = small_space();
  FunctionObjective inner([](const Configuration& c) { return c[0]; });
  FaultInjectionOptions fopts;
  fopts.error_rate = 1.0;
  fopts.max_faults_per_key = 1;
  FaultInjectingObjective faulty(inner, fopts);

  RetryPolicy policy;
  policy.max_attempts = 2;
  ParallelEvaluator evaluator(faulty, policy);
  EXPECT_EQ(evaluator.policy().max_attempts, 2);

  const std::vector<Configuration> configs = {space.snap({1, 1}),
                                              space.snap({2, 2})};
  std::vector<double> out(configs.size());
  std::vector<std::uint8_t> censored;
  evaluator.evaluate_into(configs, out, &censored);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 2.0);
  EXPECT_EQ(censored, std::vector<std::uint8_t>(2, 0));

  // Stats accumulate across calls on the same evaluator.
  evaluator.evaluate_into(configs, out, &censored);
  const RetryStats& stats = evaluator.retry_stats();
  EXPECT_EQ(stats.successes, 4u);
  EXPECT_EQ(stats.retries, 2u) << "first call retried each config once";
  expect_accounting_identity(stats);
}

// ---------------------------------------------------------------------------
// The width-1 driver leg, call for call

/// Logs which Objective entry point each measurement went through, in
/// order, and forwards to `inner`.
class CallLog final : public Objective {
 public:
  explicit CallLog(Objective& inner) : inner_(inner) {}
  double measure(const Configuration& c) override {
    note("measure", c);
    return inner_.measure(c);
  }
  void measure_batch(std::span<const Configuration> configs,
                     std::span<double> out) override {
    calls.push_back("measure_batch");
    inner_.measure_batch(configs, out);
  }
  MeasurementOutcome try_measure(const Configuration& c) override {
    note("try_measure", c);
    return inner_.try_measure(c);
  }
  void try_measure_batch(std::span<const Configuration> configs,
                         std::span<MeasurementOutcome> out) override {
    calls.push_back("try_measure_batch");
    inner_.try_measure_batch(configs, out);
  }
  std::vector<std::string> calls;

 private:
  void note(const char* kind, const Configuration& c) {
    std::string s = kind;
    for (double v : c) s += " " + std::to_string(v);
    calls.push_back(std::move(s));
  }
  Objective& inner_;
};

TEST_F(RobustnessTest, WidthOneLegMakesTheCallsOfAMeasureWithRetryLoop) {
  // Without speculation, an enabled policy must measure exactly like a
  // hand-written measure_with_retry loop over the kernel, and a disabled
  // one exactly like a plain measure() loop: same Objective calls in the
  // same order, same trace, same retry accounting. The per-call fault
  // schedule is order-sensitive, so any reordering shows.
  const ParameterSpace space = small_space();
  auto f = [](const Configuration& c) {
    return -((c[0] - 7) * (c[0] - 7) + (c[1] - 12) * (c[1] - 12));
  };
  for (const bool enabled : {true, false}) {
    SCOPED_TRACE(enabled ? "retry enabled" : "retry disabled");
    RetryPolicy policy;
    if (enabled) {
      policy.max_attempts = 3;
      policy.tolerate_failures = true;
    }
    FaultInjectionOptions fopts;
    fopts.error_rate = enabled ? 0.4 : 0.0;
    fopts.mode = FaultInjectionOptions::Mode::kPerCall;
    fopts.seed = 5;

    FunctionObjective inner(f);
    FaultInjectingObjective faulty(inner, fopts);
    CallLog driven(faulty);
    TuningOptions opts;
    opts.simplex.max_evaluations = 60;
    opts.retry = policy;
    TuningSession session(space, driven, opts);
    const TuningResult r = session.run();

    FunctionObjective ref_inner(f);
    FaultInjectingObjective ref_faulty(ref_inner, fopts);
    CallLog ref(ref_faulty);
    SimplexOptions so = opts.simplex;
    if (enabled) so.censored_threshold = policy.censored_value;
    StepwiseSimplex kernel(space, so,
                           EvenSpreadStrategy().vertices(space,
                                                         space.defaults()));
    RetryStats stats;
    std::vector<Measurement> trace;
    while (const Configuration* c = kernel.peek()) {
      Measurement m{*c, 0.0};
      if (enabled) {
        const MeasurementOutcome o =
            measure_with_retry(ref, *c, policy, stats);
        m.censored = !o.ok();
        m.performance = m.censored ? policy.censored_value : o.value;
      } else {
        m.performance = ref.measure(*c);
      }
      kernel.report(m.performance);
      trace.push_back(std::move(m));
    }

    EXPECT_EQ(driven.calls, ref.calls);
    EXPECT_EQ(trace_hex(r.trace), trace_hex(trace));
    EXPECT_EQ(r.retry, stats) << stats_str(r.retry);
    EXPECT_EQ(r.stop_reason, kernel.result().stop_reason);
    expect_accounting_identity(r.retry);
    if (enabled) {
      EXPECT_GT(r.retry.retries, 0u) << "the schedule must inject faults";
    } else {
      EXPECT_EQ(r.retry, RetryStats{});
    }
    const SpeculationStats& spec = r.speculation;
    EXPECT_EQ(spec.batches + spec.measured + spec.consumed + spec.cache_hits +
                  spec.wasted,
              0u);
  }
}

}  // namespace
}  // namespace harmony

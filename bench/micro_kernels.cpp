// Micro-benchmarks (google-benchmark) for the kernels the tuning loop and
// the simulator sit on: DES event throughput, one full cluster simulation,
// simplex search cost on an analytic landscape, the triangulation solve,
// RSL parsing and the sensitivity sweep.
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/analyzer.hpp"
#include "core/history.hpp"
#include "core/estimator.hpp"
#include "core/objective.hpp"
#include "core/rsl.hpp"
#include "core/sensitivity.hpp"
#include "core/simplex.hpp"
#include "core/strategies.hpp"
#include "synth/ecommerce.hpp"
#include "synth/landscapes.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "websim/cluster.hpp"
#include "websim/des.hpp"

using namespace harmony;

namespace {

void BM_DesEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    websim::Simulation sim;
    std::int64_t fired = 0;
    const std::int64_t target = state.range(0);
    std::function<void()> chain = [&] {
      if (++fired < target) sim.schedule(0.001, chain);
    };
    sim.schedule(0.001, chain);
    sim.run_until(1e18);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DesEventThroughput)->Arg(10000);

// Burst scheduling: many events pending at once, each with a capture too
// large for std::function's 16-byte inline buffer (but within the DES
// action's inline capacity). Exercises the event-queue fast path:
// reserve_events pre-sizes the heap and slot pool, scheduling stores the
// callable inline, and the heap sifts move only plain-data entries.
void BM_DesScheduleBurst(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  struct Payload {
    std::uint64_t words[6] = {};
  };
  for (auto _ : state) {
    websim::Simulation sim;
    sim.reserve_events(n);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Payload payload;
      payload.words[0] = i;
      sim.schedule(1e-6 * static_cast<double>(i % 97),
                   [&sink, payload] { sink += payload.words[0]; });
    }
    sim.run_until(1.0);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DesScheduleBurst)->Arg(100000);

void BM_ClusterSimulation(benchmark::State& state) {
  websim::SimOptions opts;
  opts.measure_s = static_cast<double>(state.range(0));
  opts.seed = 5;
  for (auto _ : state) {
    const auto m = websim::simulate_cluster(websim::ClusterConfig{}, opts);
    benchmark::DoNotOptimize(m.wips);
  }
}
BENCHMARK(BM_ClusterSimulation)->Arg(5)->Arg(30);

void BM_SimplexSearch(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const ParameterSpace space = synth::symmetric_space(dims, 20.0, 1.0);
  auto objective = synth::sphere_objective(7.0);
  for (auto _ : state) {
    SimplexOptions opts;
    opts.max_evaluations = 200;
    SimplexSearch search(space, opts);
    EvenSpreadStrategy strategy;
    const auto r = search.maximize(
        [&](const Configuration& c) { return objective.measure(c); },
        strategy.vertices(space, space.defaults()));
    benchmark::DoNotOptimize(r.best_value);
  }
}
BENCHMARK(BM_SimplexSearch)->Arg(4)->Arg(8)->Arg(15);

// Memoized objective under a full simplex run: the discrete search revisits
// grid points, so the cache absorbs a sizable share of the measurements.
// The hit/miss/insert counters come straight from CachingObjective::stats();
// the map is pre-sized from the evaluation budget so the run never rehashes.
void BM_CachingObjectiveSearch(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const ParameterSpace space = synth::symmetric_space(dims, 20.0, 1.0);
  auto objective = synth::sphere_objective(7.0);
  SimplexOptions opts;
  opts.max_evaluations = 200;
  CachingObjective::Stats last;
  for (auto _ : state) {
    CachingObjective cache(objective,
                           static_cast<std::size_t>(opts.max_evaluations));
    SimplexSearch search(space, opts);
    EvenSpreadStrategy strategy;
    const auto r = search.maximize(
        [&](const Configuration& c) { return cache.measure(c); },
        strategy.vertices(space, space.defaults()));
    benchmark::DoNotOptimize(r.best_value);
    last = cache.stats();
  }
  state.counters["hits"] = static_cast<double>(last.hits);
  state.counters["misses"] = static_cast<double>(last.misses);
  state.counters["inserts"] = static_cast<double>(last.inserts);
}
BENCHMARK(BM_CachingObjectiveSearch)->Arg(4)->Arg(8)->Arg(15);

void BM_EstimatorSolve(benchmark::State& state) {
  synth::SyntheticSystem system;
  const ParameterSpace& space = system.space();
  PerformanceEstimator est(space);
  Rng rng(3);
  const auto w = system.shopping_workload();
  for (int i = 0; i < 200; ++i) {
    const Configuration c = space.random_configuration(rng);
    est.add(c, system.measure(c, w));
  }
  const Configuration target = space.defaults();
  for (auto _ : state) {
    const auto r = est.estimate(target, static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_EstimatorSolve)->Arg(16)->Arg(64);

// ---------------------------------------------------------------------------
// Classifier maintenance head to head: a full fit() over N rows vs a
// delta-aware refit() absorbing one 64-row append on the same chain.
// Arg(0) selects the classifier (0 lstsq, 1 tree, 2 kmeans), Arg(1) the
// base row count. The update bench pre-builds a chain of views over one
// flat array — shared append_base, fresh version per step — and re-fits
// the base outside the timed region when the chain runs dry.

constexpr std::size_t kIncDims = 16;
constexpr std::size_t kIncBatch = 64;

std::unique_ptr<Classifier> bench_classifier(int kind) {
  switch (kind) {
    case 0: return std::make_unique<LeastSquareClassifier>();
    case 1: return std::make_unique<DecisionTreeClassifier>();
    // Enough Lloyd's iterations that fit() converges (it stops early):
    // the update bench's restricted pass starts from a converged model,
    // as it would in a long-running daemon, instead of tripping the
    // drift hysteresis on leftover movement.
    default: return std::make_unique<KMeansClassifier>(32, 42, 50);
  }
}

const char* bench_classifier_label(int kind) {
  switch (kind) {
    case 0: return "lstsq";
    case 1: return "tree";
    default: return "kmeans";
  }
}

struct DeltaChain {
  std::vector<double> data;
  std::vector<std::size_t> offsets;
  std::vector<SignatureView> views;  // views[j] exposes base + j*64 rows
};

DeltaChain make_delta_chain(std::size_t base, std::size_t deltas) {
  DeltaChain c;
  const std::size_t total = base + deltas * kIncBatch;
  Rng rng(11);
  c.data.resize(total * kIncDims);
  for (double& v : c.data) v = rng.uniform01();
  c.offsets.resize(total + 1);
  for (std::size_t i = 0; i <= total; ++i) c.offsets[i] = i * kIncDims;
  const std::uint64_t chain = next_signature_version();
  c.views.reserve(deltas + 1);
  for (std::size_t j = 0; j <= deltas; ++j) {
    SignatureView v;
    v.tail_data = c.data.data();
    v.tail_offsets = c.offsets.data();
    v.count = base + j * kIncBatch;
    v.dims = kIncDims;
    v.version = next_signature_version();
    v.append_base = chain;
    c.views.push_back(v);
  }
  return c;
}

void BM_ClassifierFit(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  const DeltaChain chain = make_delta_chain(count, 0);
  const std::unique_ptr<Classifier> c = bench_classifier(kind);
  for (auto _ : state) {
    c->fit(chain.views[0]);
    benchmark::DoNotOptimize(c.get());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.SetLabel(bench_classifier_label(kind));
}
BENCHMARK(BM_ClassifierFit)
    ->Args({0, 10000})->Args({0, 100000})->Args({0, 1000000})
    ->Args({1, 10000})->Args({1, 100000})->Args({1, 1000000})
    ->Args({2, 10000})->Args({2, 100000})
    ->Unit(benchmark::kMicrosecond);

void BM_ClassifierUpdate(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const auto count = static_cast<std::size_t>(state.range(1));
  // Short enough that k-means never trips its pending-fraction escalation
  // at the 10k base: the timed region stays on the pure delta path.
  constexpr std::size_t kDeltas = 24;
  const bool before = incremental_fit_enabled();
  set_incremental_fit(true);
  const DeltaChain chain = make_delta_chain(count, kDeltas);
  const std::unique_ptr<Classifier> c = bench_classifier(kind);
  c->fit(chain.views[0]);
  std::size_t next = 1;
  for (auto _ : state) {
    if (next > kDeltas) {
      state.PauseTiming();
      c->fit(chain.views[0]);
      next = 1;
      state.ResumeTiming();
    }
    c->refit(chain.views[next++]);
    benchmark::DoNotOptimize(c.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kIncBatch));
  // Any full rebuild in the label means the delta path escalated.
  state.SetLabel(std::string(bench_classifier_label(kind)) +
                 " incr=" + std::to_string(c->refit_stats().incremental) +
                 " full=" + std::to_string(c->refit_stats().full));
  set_incremental_fit(before);
}
BENCHMARK(BM_ClassifierUpdate)
    ->Args({0, 10000})->Args({0, 100000})->Args({0, 1000000})
    ->Args({1, 10000})->Args({1, 100000})->Args({1, 1000000})
    ->Args({2, 10000})->Args({2, 100000})
    ->Unit(benchmark::kMicrosecond);

// Signature-distance argmin kernels over the flat experience store: the
// scalar reference loop vs the blocked 4-row kernel with early exit. Kernel
// regressions show up here independently of the end-to-end history_scale
// bench. Both kernels must return the same index (bit-identical semantics).
void BM_SignatureScanScalar(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::size_t dims = 16;
  Rng rng(11);
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  std::vector<double> query(dims);
  for (double& v : query) v = rng.uniform01();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nearest_signature_scalar(data.data(), count, dims, query.data()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SignatureScanScalar)->Arg(1 << 10)->Arg(1 << 17);

void BM_SignatureScanBlocked(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::size_t dims = 16;
  Rng rng(11);
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  std::vector<double> query(dims);
  for (double& v : query) v = rng.uniform01();
  for (auto _ : state) {
    double best_d = std::numeric_limits<double>::infinity();
    std::size_t best = 0;
    nearest_signature_scan(data.data(), dims, 0, count, query.data(), best_d,
                           best);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SignatureScanBlocked)->Arg(1 << 10)->Arg(1 << 17);

// ---------------------------------------------------------------------------
// SIMD dispatch levels head to head. Arg(0/1/2) selects
// kScalar/kAvx2/kAvx512; levels the host CPU lacks are skipped, so the same
// binary reports whatever the machine supports.

bool skip_unsupported(benchmark::State& state, SimdLevel level) {
  if (simd_supported(level)) return false;
  state.SkipWithError("SIMD level not supported on this CPU");
  return true;
}

void BM_DistanceScanLevel(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  if (skip_unsupported(state, level)) return;
  const auto count = static_cast<std::size_t>(state.range(1));
  const std::size_t dims = 16;
  Rng rng(11);
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  std::vector<double> query(dims);
  for (double& v : query) v = rng.uniform01();
  for (auto _ : state) {
    double best_d = std::numeric_limits<double>::infinity();
    std::size_t best_i = 0;
    nearest_signature_scan_level(level, data.data(), dims, 0, count,
                                 query.data(), best_d, best_i);
    benchmark::DoNotOptimize(best_i);
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.SetLabel(simd_level_name(level));
}
BENCHMARK(BM_DistanceScanLevel)
    ->Args({0, 1 << 17})->Args({1, 1 << 17})->Args({2, 1 << 17});

void BM_SketchPrunedScanLevel(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  if (skip_unsupported(state, level)) return;
  const auto count = static_cast<std::size_t>(state.range(1));
  const std::size_t dims = 16;
  constexpr std::size_t kPrefix = LeastSquareClassifier::kSketchPrefix;
  Rng rng(11);
  std::vector<double> data(count * dims);
  for (double& v : data) v = rng.uniform01();
  // Plane-major sketch, the layout LeastSquareClassifier::fit builds.
  std::vector<double> sketch(count * (kPrefix + 1));
  for (std::size_t i = 0; i < count; ++i) {
    const double* row = data.data() + i * dims;
    for (std::size_t d = 0; d < kPrefix; ++d) sketch[d * count + i] = row[d];
    double rest = 0.0;
    for (std::size_t d = kPrefix; d < dims; ++d) rest += row[d] * row[d];
    sketch[kPrefix * count + i] = std::sqrt(rest);
  }
  std::vector<double> query(dims);
  for (double& v : query) v = rng.uniform01();
  double qrest = 0.0;
  for (std::size_t d = kPrefix; d < dims; ++d) qrest += query[d] * query[d];
  qrest = std::sqrt(qrest);
  for (auto _ : state) {
    double best_d = std::numeric_limits<double>::infinity();
    std::size_t best_i = 0;
    sketch_pruned_scan_level(level, data.data(), dims, sketch.data(), count,
                             0, count, query.data(), qrest, best_d, best_i);
    benchmark::DoNotOptimize(best_i);
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.SetLabel(simd_level_name(level));
}
BENCHMARK(BM_SketchPrunedScanLevel)
    ->Args({0, 1 << 17})->Args({1, 1 << 17})->Args({2, 1 << 17});

// The k-means inner loop: assign every row to its nearest of 64 centroids.
void BM_KMeansAssignLevel(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  if (skip_unsupported(state, level)) return;
  const std::size_t rows = 1 << 14, dims = 16, k = 64;
  Rng rng(21);
  std::vector<double> data(rows * dims), centroids(k * dims);
  for (double& v : data) v = rng.uniform01();
  for (double& v : centroids) v = rng.uniform01();
  for (auto _ : state) {
    std::size_t sink = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      double best_d = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      nearest_signature_scan_level(level, centroids.data(), dims, 0, k,
                                   data.data() + i * dims, best_d, best_c);
      sink += best_c;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows));
  state.SetLabel(simd_level_name(level));
}
BENCHMARK(BM_KMeansAssignLevel)->Arg(0)->Arg(1)->Arg(2);

void BM_LstsqSolveLevel(benchmark::State& state) {
  const auto level = static_cast<SimdLevel>(state.range(0));
  if (skip_unsupported(state, level)) return;
  const SimdLevel before = simd_level();
  set_simd_level(level);
  const std::size_t rows = 200, cols = 8;
  Rng rng(9);
  linalg::Matrix a(rows, cols);
  std::vector<double> b(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) a(r, c) = rng.uniform(-2.0, 2.0);
    b[r] = rng.uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    const auto res = linalg::least_squares(a, b);
    benchmark::DoNotOptimize(res.x.data());
  }
  set_simd_level(before);
  state.SetLabel(simd_level_name(level));
}
BENCHMARK(BM_LstsqSolveLevel)->Arg(0)->Arg(1)->Arg(2);

void BM_RslParse(benchmark::State& state) {
  std::string spec;
  for (int i = 0; i < 20; ++i) {
    const std::string name = "P" + std::to_string(i);
    if (i == 0) {
      spec += "{ harmonyBundle " + name + " { int {1 100 1} } }\n";
    } else {
      spec += "{ harmonyBundle " + name + " { int {1 100-$P" +
              std::to_string(i - 1) + " 1} } }\n";
    }
  }
  for (auto _ : state) {
    const ParameterSpace s = parse_rsl(spec);
    benchmark::DoNotOptimize(s.size());
  }
}
BENCHMARK(BM_RslParse);

void BM_SensitivitySweep(benchmark::State& state) {
  synth::SyntheticSystem system;
  synth::SyntheticObjective obj(system, system.shopping_workload());
  SensitivityOptions opts;
  opts.max_points_per_parameter = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto s = analyze_sensitivity(system.space(), obj,
                                       system.space().defaults(), opts);
    benchmark::DoNotOptimize(s.size());
  }
}
BENCHMARK(BM_SensitivitySweep)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();

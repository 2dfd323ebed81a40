// Figure 7: tuning using experiences recorded at increasing distance from
// the current workload.
//
// The tuner serves workload A after being trained with historical data from
// workload A' at distance d. The paper's claim: the closer the experience's
// characteristics are to the current workload, the less time tuning takes
// (and the smoother it is); performance after tuning stays roughly flat.
#include <iostream>

#include "bench/bench_common.hpp"
#include "core/tuner.hpp"
#include "synth/ecommerce.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace harmony;
using namespace harmony::synth;

int main() {
  bench::section("Figure 7: tuning with experience from distance d");
  bench::expectation(
      "tuning time (iterations) grows with the distance between the "
      "historical workload A' and the current workload A; tuned performance "
      "stays roughly flat");

  // Stronger workload coupling than the default system: Fig. 7 is about
  // workloads whose optima genuinely move apart with distance.
  EcommerceOptions eopts;
  eopts.workload_coupling = 0.8;
  SyntheticSystem system(eopts);
  const ParameterSpace& space = system.space();
  const WorkloadSignature current = system.shopping_workload();
  SyntheticObjective live(system, current);

  // Reference: the performance a long cold tuning of the current workload
  // reaches; "time" below is iterations until a run first gets within 97 %
  // of this level.
  double reference = 0.0;
  {
    TuningOptions ref_opts;
    ref_opts.simplex.max_evaluations = 1500;
    Rng rng(1);
    for (int i = 0; i < 5; ++i) {
      TuningSession ref(space, live, ref_opts);
      ref.set_start(space.random_configuration(rng));
      reference = std::max(reference, ref.run().best_performance);
    }
  }
  std::printf("reference tuned performance: %.2f\n", reference);

  // The paper's x-axis runs 0..6 in its characteristics space; our
  // signatures live in [0,1]^3, so the sweep spans the comparable range.
  const double distances[] = {0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8};

  Table t({"distance", "time (iterations)", "performance after tuning",
           "worst during tuning"});
  std::vector<double> xs, times;
  const int replicas = 12;
  for (double d : distances) {
    RunningStats time_s, perf_s, worst_s;
    for (int rep = 0; rep < replicas; ++rep) {
      const auto rep64 = static_cast<std::uint64_t>(rep);
      Rng rng(2000 + rep64 * 7);
      // Live systems measure with noise; 5 % run-to-run variation.
      PerturbedObjective noisy_live(live, 0.05, Rng(3000 + rep64));

      // Record the experience by tuning at the displaced workload A'.
      const WorkloadSignature trained_at =
          system.workload_at_distance(current, d);
      SyntheticObjective past(system, trained_at);
      PerturbedObjective noisy_past(past, 0.05, Rng(4000 + rep64));
      TuningOptions opts;
      opts.simplex.max_evaluations = 300;
      TuningSession recorder(space, noisy_past, opts);
      recorder.set_start(space.random_configuration(rng));
      const TuningResult history = recorder.run();

      // Warm-start tuning of the current workload from that experience.
      // "Time" is the number of live explorations until the kernel
      // converges (the tuner keeps exploring as long as the seeded region
      // is not yet optimal for the new workload).
      TuningSession session(space, noisy_live, opts);
      session.seed(history.trace, /*use_recorded_values=*/false);
      const TuningResult r = session.run();
      const TraceMetrics m = analyze_trace(r.trace);
      // Iterations until the run first reaches 97 % of the reference level
      // (noise-free check of each explored configuration).
      int reached = r.evaluations;
      for (std::size_t i = 0; i < r.trace.size(); ++i) {
        if (live.measure(r.trace[i].config) >= 0.97 * reference) {
          reached = static_cast<int>(i) + 1;
          break;
        }
      }
      time_s.add(reached);
      perf_s.add(live.measure(r.best_config));  // noise-free report
      worst_s.add(m.worst);
    }
    t.add_row({Table::num(d, 2), Table::num(time_s.mean(), 1),
               Table::num(perf_s.mean(), 2), Table::num(worst_s.mean(), 2)});
    xs.push_back(d);
    times.push_back(time_s.mean());
  }
  bench::print_table(t, "fig7");

  const double corr = pearson(xs, times);
  std::printf("\ncorrelation(distance, tuning time) = %.2f\n", corr);
  bench::finding(corr > 0.3,
                 "tuning time increases with experience distance");
  return 0;
}

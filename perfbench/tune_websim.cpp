// tune_websim — the paper's own loop: measurement-bound and in process.
//
// Why: the DES and the search kernel do the work, so the tuner-quality
// metrics (evaluations, best and worst WIPS) mean something here; net and
// the store are absent and the history stays tiny.
//
// Shape: rounds of HarmonyServer::serve_batch over websim::ClusterObjective
// requests — the fig8 10-knob cluster space, TPC-W mixes blended between
// the three specification mixes — on the global pool (nproc threads). Every
// round warm-starts from the experience the earlier rounds recorded.
#include <memory>

#include "common.hpp"
#include "core/server.hpp"
#include "probes.hpp"
#include "util/thread_pool.hpp"
#include "websim/cluster.hpp"
#include "websim/config.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace websim = harmony::websim;

constexpr std::size_t kRounds = 6;
constexpr int kMaxEvaluations = 100;
constexpr int kBrowsers = 150;
constexpr double kWarmupS = 2.0;
constexpr double kMeasureS = 8.0;

struct RequestInput {
  websim::WorkloadMix mix = websim::WorkloadMix::shopping();
  std::uint64_t sim_seed = 0;
};

class TuneWebsim final : public Workload {
 public:
  explicit TuneWebsim(std::uint64_t seed)
      : space_(websim::ClusterConfig::parameter_space()) {
    const websim::WorkloadMix bases[] = {websim::WorkloadMix::shopping(),
                                         websim::WorkloadMix::browsing(),
                                         websim::WorkloadMix::ordering()};
    harmony::Rng rng(seed);
    const std::size_t per_round = 4 * nproc();
    for (std::size_t i = 0; i < kRounds * per_round; ++i) {
      RequestInput in;
      // The mixes are fixed; the seed drives the simulations' randomness.
      in.mix = websim::WorkloadMix::blend(
          bases[i % 3], bases[(i + 1) % 3],
          0.1 * static_cast<double>((i / 3) % 5));
      in.sim_seed = rng();
      inputs_.push_back(std::move(in));
    }
  }

  void prepare(const std::string&) override {}

  RepResult run_rep(const std::string&, bool traced) override {
    RepResult out;
    const std::size_t per_round = inputs_.size() / kRounds;

    // ---- set-up: server, analyzer, first fit of the (empty) history -------
    const std::int64_t t0 = now_ns();
    harmony::ServerOptions opts;
    opts.tuning.simplex.max_evaluations = kMaxEvaluations;
    harmony::HarmonyServer server(space_, opts);
    const harmony::DataAnalyzer analyzer(make_classifier(traced));
    server.set_analyzer(analyzer);
    analyzer.ensure_fitted(server.database());
    out.setup_s = seconds_between(t0, now_ns());

    // ---- rounds -----------------------------------------------------------
    double measure_ns = 0.0, events = 0.0, warm = 0.0;
    double wall_ns = 0.0;
    const double cpu0 = process_cpu_s();
    for (std::size_t r = 0; r < kRounds; ++r) {
      // Objectives are inputs: built before the clock starts.
      std::vector<std::unique_ptr<websim::ClusterObjective>> sims;
      std::vector<std::unique_ptr<TimedObjective>> probes;
      std::vector<harmony::ServeRequest> requests(per_round);
      for (std::size_t j = 0; j < per_round; ++j) {
        const RequestInput& in = inputs_[r * per_round + j];
        websim::SimOptions sim;
        sim.mix = in.mix;
        sim.emulated_browsers = kBrowsers;
        sim.warmup_s = kWarmupS;
        sim.measure_s = kMeasureS;
        sim.seed = in.sim_seed;
        sims.push_back(std::make_unique<websim::ClusterObjective>(sim));
        probes.push_back(std::make_unique<TimedObjective>(
            *sims.back(), "websim.measure", r * per_round + j + 1,
            &requests[j].signature, sims.back().get()));
        requests[j] = {probes.back().get(), in.mix.signature(),
                       "mix" + std::to_string(j % 3)};
      }
      const std::int64_t w0 = now_ns();
      const auto results = server.serve_batch(requests);
      const std::int64_t w1 = now_ns();
      wall_ns += static_cast<double>(w1 - w0);
      if (traced) {
        const double covered = trace::thread_root_time_ns(w0, w1);
        out.samples["trace.attributed_share"].push_back(
            covered / (static_cast<double>(w1 - w0) * pool_threads()));
      }

      for (std::size_t j = 0; j < results.size(); ++j) {
        const TimedObjective& probe = *probes[j];
        add_served_session(out, results[j], probe, "tune_websim");
        if (results[j].experience_label) warm += 1.0;
        for (double m : probe.measure_ns) {
          out.samples["websim.measure_ms"].push_back(m / 1e6);
          measure_ns += m;
        }
        events += static_cast<double>(probe.events);
      }
    }
    out.cpu_s = process_cpu_s() - cpu0;
    out.wall_s = wall_ns * 1e-9;

    finish_session_means(out);
    const double n = static_cast<double>(out.sessions);
    const auto& rs = analyzer.refit_stats();
    out.refits_full = rs.full;
    out.refits_incr = rs.incremental;
    if (traced) out.samples["tuner.plan_us"] = out.step_us;
    out.values["websim.events_per_s"] =
        measure_ns > 0.0 ? events / (measure_ns * 1e-9) : 0.0;
    out.values["pool.busy_share"] = measure_ns / (wall_ns * pool_threads());
    out.values["tuner.warm_started_share"] = warm / n;
    return out;
  }

 private:
  harmony::ParameterSpace space_;
  std::vector<RequestInput> inputs_;
};

}  // namespace

std::unique_ptr<Workload> make_tune_websim(std::uint64_t seed) {
  return std::make_unique<TuneWebsim>(seed);
}

}  // namespace perfbench

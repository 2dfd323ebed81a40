// recall_history — read-heavy over a large history.
//
// Why: the classify scan and the store's cold open do the work, and nothing
// is written. A change that trades classify speed for refit speed shows here
// with the opposite sign to serve_loopback.
//
// Shape: HarmonyServer::attach_store opens a pre-written store of a million
// clustered 8-dim signatures (a snapshot plus a log tail), experience
// recording off; then many short sessions with a cheap objective run
// through serve_batch, each warm-started from its nearest prior run.
#include <memory>

#include "common.hpp"
#include "core/rsl.hpp"
#include "core/server.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kClusters = 256;
constexpr std::size_t kDims = 8;
constexpr std::size_t kParams = 3;
constexpr double kNoise = 0.01;
constexpr std::size_t kSnapshotRecords = 980000;
constexpr std::size_t kTailRecords = 20000;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kBatches = 16;
constexpr int kMaxEvaluations = 30;

struct SessionInput {
  std::size_t cluster = 0;
  harmony::WorkloadSignature signature;
};

class RecallHistory final : public Workload {
 public:
  explicit RecallHistory(std::uint64_t seed)
      : seed_(seed),
        model_(kWorldSeed, kClusters, kDims, kParams, kNoise),
        space_(harmony::parse_rsl(model_.rsl())) {
    harmony::Rng rng(seed ^ 0x7eca11ULL);
    for (std::size_t i = 0; i < kBatch * kBatches; ++i) {
      SessionInput in;
      in.cluster = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kClusters) - 1));
      in.signature = model_.signature(in.cluster, rng);
      sessions_.push_back(std::move(in));
    }
  }

  void prepare(const std::string& dir) override {
    write_prior_store(dir + "/history", model_, kSnapshotRecords,
                      kTailRecords, 1, seed_ + 1);
  }

  RepResult run_rep(const std::string& dir, bool traced) override {
    RepResult out;

    // ---- set-up: recover the store, first fit -----------------------------
    const std::int64_t t0 = now_ns();
    harmony::ServerOptions opts;
    opts.tuning.simplex.max_evaluations = kMaxEvaluations;
    opts.record_experience = false;
    harmony::HarmonyServer server(space_, opts);
    const harmony::RecoveryInfo info = server.attach_store(dir + "/history");
    const std::int64_t t_open = now_ns();
    const harmony::DataAnalyzer analyzer(make_classifier(traced));
    server.set_analyzer(analyzer);
    analyzer.ensure_fitted(server.database());
    out.setup_s = seconds_between(t0, now_ns());
    out.samples["store.open_ms"] = {seconds_between(t0, t_open) * 1e3};
    if (server.database().size() != kSnapshotRecords + kTailRecords ||
        info.replayed_records != kTailRecords) {
      out.errors.push_back("recall_history: store recovered " +
                           std::to_string(server.database().size()) +
                           " records");
    }

    // ---- sessions ---------------------------------------------------------
    const auto refits0 = analyzer.refit_stats();
    double wall_ns = 0.0, warm = 0.0, wrong_cluster = 0.0;
    const double cpu0 = process_cpu_s();
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<std::unique_ptr<harmony::FunctionObjective>> objectives;
      std::vector<std::unique_ptr<TimedObjective>> probes;
      std::vector<harmony::ServeRequest> requests(kBatch);
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::size_t i = b * kBatch + j;
        const SessionInput& in = sessions_[i];
        objectives.push_back(std::make_unique<harmony::FunctionObjective>(
            model_.landscapes[in.cluster]));
        probes.push_back(std::make_unique<TimedObjective>(
            *objectives.back(), "objective.measure", i + 1,
            &requests[j].signature));
        requests[j] = {probes.back().get(), in.signature, "recall"};
      }
      const std::int64_t w0 = now_ns();
      const auto results = server.serve_batch(requests);
      const std::int64_t w1 = now_ns();
      wall_ns += static_cast<double>(w1 - w0);
      if (traced) {
        out.samples["trace.attributed_share"].push_back(
            trace::thread_root_time_ns(w0, w1) /
            (static_cast<double>(w1 - w0) * pool_threads()));
      }

      for (std::size_t j = 0; j < results.size(); ++j) {
        const harmony::ServedTuningResult& res = results[j];
        add_served_session(out, res, *probes[j], "recall_history");
        if (res.experience_label) {
          warm += 1.0;
          const std::size_t cluster = sessions_[b * kBatch + j].cluster;
          if (*res.experience_label != "c" + std::to_string(cluster)) {
            wrong_cluster += 1.0;
          }
        }
      }
    }
    out.cpu_s = process_cpu_s() - cpu0;
    out.wall_s = wall_ns * 1e-9;
    const auto refits1 = analyzer.refit_stats();
    out.refits_full = refits1.full - refits0.full;
    out.refits_incr = refits1.incremental - refits0.incremental;
    if (out.refits_full + out.refits_incr != 0) {
      out.errors.push_back("recall_history: classifier refitted after set-up");
    }
    if (wrong_cluster > 0.0 || warm != static_cast<double>(out.sessions)) {
      out.errors.push_back(
          "recall_history: a session was not warm-started from its own "
          "workload family");
    }

    finish_session_means(out);
    if (traced) out.samples["tuner.plan_us"] = out.step_us;
    out.values["tuner.warm_started_share"] =
        warm / static_cast<double>(out.sessions);
    return out;
  }

 private:
  std::uint64_t seed_;
  ClusterModel model_;
  harmony::ParameterSpace space_;
  std::vector<SessionInput> sessions_;
};

}  // namespace

std::unique_ptr<Workload> make_recall_history(std::uint64_t seed) {
  return std::make_unique<RecallHistory>(seed);
}

}  // namespace perfbench

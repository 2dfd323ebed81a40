// Shared pieces of the benchmark: seeded input model, the workload
// interface, and measurement helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/parameter.hpp"
#include "core/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

// ---- seeded input model ---------------------------------------------------

/// Cheap deterministic objective: a smooth peak at `optimum` on an integer
/// grid, always in (0, 100]. Stands in for the application a client tunes
/// when the benchmark wants tuner and service costs, not measurement cost,
/// to dominate.
struct Landscape {
  std::vector<double> optimum;
  [[nodiscard]] double operator()(const harmony::Configuration& x) const;
};

/// Seed of the workload families themselves. The families are fixed; a
/// run's --seed draws the sessions, the signature noise and the prior runs'
/// measurements, so runs of different seeds do comparable work.
inline constexpr std::uint64_t kWorldSeed = 0x5eedf00dULL;

/// Clustered workload families: each cluster has a signature centre and a
/// landscape; workloads of one family share the landscape, so experience
/// retrieved from the right cluster is a good warm start.
struct ClusterModel {
  std::size_t dims = 0;    ///< signature arity
  std::size_t params = 0;  ///< tunable parameters (int 0..20 each)
  double noise = 0.0;      ///< signature noise around the centre
  std::vector<harmony::WorkloadSignature> centers;
  std::vector<Landscape> landscapes;

  ClusterModel(std::uint64_t seed, std::size_t clusters, std::size_t dims,
               std::size_t params, double noise);

  [[nodiscard]] std::string rsl() const;
  [[nodiscard]] harmony::WorkloadSignature signature(std::size_t cluster,
                                                     harmony::Rng& rng) const;
  /// A prior run of `cluster`: its signature plus `measurements`
  /// configurations near the landscape's peak with their values.
  [[nodiscard]] harmony::ExperienceRecord record(std::size_t cluster,
                                                 std::size_t measurements,
                                                 harmony::Rng& rng) const;
};

/// Writes a durable store at `prefix`: a snapshot of `snapshot_records`
/// prior runs plus a log tail of `tail_records` more. Returns the total.
std::size_t write_prior_store(const std::string& prefix,
                              const ClusterModel& model,
                              std::size_t snapshot_records,
                              std::size_t tail_records,
                              std::size_t measurements, std::uint64_t seed);

// ---- workload interface ---------------------------------------------------

/// One repetition: a cold set-up followed by a fixed, seeded set of
/// sessions. Every repetition of one seed does identical work.
struct RepResult {
  double setup_s = 0.0;   ///< cold start, excluding input preparation
  double wall_s = 0.0;    ///< the sessions, after set-up
  double cpu_s = 0.0;     ///< process CPU over wall_s (load generator excluded)
  std::size_t sessions = 0;
  std::size_t failed = 0;
  std::vector<double> step_us;  ///< end-to-end step latency samples
  double step_p50_us = 0.0;     ///< p50 of step_us (kept after it is freed)
  std::size_t steps = 0;        ///< number of step samples
  /// Tuner quality, per-session means; identical in every repetition.
  double evals = 0.0;
  double best = 0.0;
  double worst = 0.0;
  std::uint64_t refits_full = 0;  ///< classifier refits after set-up
  std::uint64_t refits_incr = 0;
  std::vector<std::string> errors;  ///< failed output checks
  /// Per-layer raw samples (percentiles are taken over all repetitions)
  /// and per-repetition values (the median over repetitions is reported).
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
};

class TimedObjective;

/// Folds one in-process session (a serve_batch result and its objective
/// probe) into a repetition: counts, tuner-quality sums, step gaps and the
/// first-step latency. Failed sessions are counted and reported as errors.
void add_served_session(RepResult& out, const harmony::ServedTuningResult& res,
                        const TimedObjective& probe, const char* workload);

/// Turns the tuner-quality sums of add_served_session into per-session
/// means.
void finish_session_means(RepResult& out);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Writes the inputs that are too large to rebuild per repetition into
  /// `dir` (run in a separate process, so it never counts as set-up or
  /// peak memory).
  virtual void prepare(const std::string& dir) = 0;
  virtual RepResult run_rep(const std::string& dir, bool traced) = 0;
};

// ---- measurement helpers --------------------------------------------------

/// Online CPUs (at least 1).
[[nodiscard]] std::size_t nproc();
/// Threads that run global-pool tasks: the workers plus the calling thread,
/// which helps while it waits.
[[nodiscard]] double pool_threads();

[[nodiscard]] double seconds_between(std::int64_t from_ns, std::int64_t to_ns);
[[nodiscard]] double process_cpu_s();
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();
/// User and system CPU seconds of thread `tid` of this process.
void task_cpu_s(long tid, double& user_s, double& sys_s);
[[nodiscard]] long current_tid();
[[nodiscard]] double peak_rss_mb();
/// Exact percentile (linear interpolation) of raw samples; 0 when empty.
[[nodiscard]] double pct(std::vector<double> xs, double p);
[[nodiscard]] double median(std::vector<double> xs);

}  // namespace perfbench

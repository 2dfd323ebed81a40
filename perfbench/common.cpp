#include "common.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "core/server.hpp"
#include "core/store.hpp"
#include "probes.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using harmony::Configuration;
using harmony::ExperienceRecord;
using harmony::Rng;
using harmony::WorkloadSignature;

double Landscape::operator()(const Configuration& x) const {
  double d = 0.0;
  for (std::size_t i = 0; i < optimum.size(); ++i) {
    const double t = (x[i] - optimum[i]) / 4.0;
    d += t * t;
  }
  return 100.0 / (1.0 + d);
}

ClusterModel::ClusterModel(std::uint64_t seed, std::size_t clusters,
                           std::size_t dims_, std::size_t params_,
                           double noise_)
    : dims(dims_), params(params_), noise(noise_) {
  Rng rng(seed);
  for (std::size_t c = 0; c < clusters; ++c) {
    WorkloadSignature center(dims);
    for (double& v : center) v = rng.uniform(0.0, 1.0);
    centers.push_back(std::move(center));
    Landscape land;
    for (std::size_t p = 0; p < params; ++p) {
      land.optimum.push_back(static_cast<double>(rng.uniform_int(2, 18)));
    }
    landscapes.push_back(std::move(land));
  }
}

std::string ClusterModel::rsl() const {
  std::string out;
  for (std::size_t p = 0; p < params; ++p) {
    out += "{ harmonyBundle p" + std::to_string(p) + " { int {0 20 1 10} } }";
  }
  return out;
}

WorkloadSignature ClusterModel::signature(std::size_t cluster,
                                          Rng& rng) const {
  WorkloadSignature sig = centers[cluster];
  for (double& v : sig) v += rng.normal(0.0, noise);
  return sig;
}

ExperienceRecord ClusterModel::record(std::size_t cluster,
                                      std::size_t measurements,
                                      Rng& rng) const {
  ExperienceRecord rec;
  rec.label = "c" + std::to_string(cluster);
  rec.signature = signature(cluster, rng);
  const Landscape& land = landscapes[cluster];
  for (std::size_t m = 0; m < measurements; ++m) {
    harmony::Measurement meas;
    for (double o : land.optimum) {
      const double v = o + static_cast<double>(rng.uniform_int(-3, 3));
      meas.config.push_back(std::clamp(v, 0.0, 20.0));
    }
    meas.performance = land(meas.config);
    rec.measurements.push_back(std::move(meas));
  }
  return rec;
}

std::size_t write_prior_store(const std::string& prefix,
                              const ClusterModel& model,
                              std::size_t snapshot_records,
                              std::size_t tail_records,
                              std::size_t measurements, std::uint64_t seed) {
  std::filesystem::remove(harmony::ExperienceStore::log_path(prefix));
  std::filesystem::remove(harmony::ExperienceStore::snapshot_path(prefix));
  harmony::HistoryDatabase db;
  harmony::ExperienceStore store;
  store.open(prefix, db);
  db.reserve(snapshot_records + tail_records,
             (snapshot_records + tail_records) * model.dims);
  Rng rng(seed);
  const std::size_t clusters = model.centers.size();
  for (std::size_t i = 0; i < snapshot_records; ++i) {
    db.add(model.record(i % clusters, measurements, rng));
  }
  store.snapshot(db);
  std::vector<ExperienceRecord> tail;
  for (std::size_t i = 0; i < tail_records; ++i) {
    tail.push_back(model.record(i % clusters, measurements, rng));
  }
  harmony::ingest_experience(db, &store, std::move(tail));
  store.close();
  return snapshot_records + tail_records;
}

void add_served_session(RepResult& out, const harmony::ServedTuningResult& res,
                        const TimedObjective& probe, const char* workload) {
  ++out.sessions;
  if (res.failed) {
    ++out.failed;
    out.errors.push_back(std::string(workload) + ": session failed: " +
                         res.failure);
    return;
  }
  out.evals += res.tuning.evaluations;
  out.best += res.tuning.best_performance;
  double worst =
      res.tuning.trace.empty() ? 0.0 : res.tuning.trace.front().performance;
  for (const auto& m : res.tuning.trace) worst = std::min(worst, m.performance);
  out.worst += worst;
  for (double g : probe.gaps_ns) out.step_us.push_back(g / 1e3);
  if (probe.first_step_ns >= 0) {
    out.samples["tuner.first_step_us"].push_back(probe.first_step_ns / 1e3);
  }
}

void finish_session_means(RepResult& out) {
  const double n = static_cast<double>(std::max<std::size_t>(out.sessions, 1));
  out.evals /= n;
  out.best /= n;
  out.worst /= n;
}

std::size_t nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double pool_threads() { return static_cast<double>(harmony::thread_count()) + 1.0; }

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void task_cpu_s(long tid, double& user_s, double& sys_s) {
  user_s = sys_s = 0.0;
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return;
  std::vector<std::string> fields;
  std::string field;
  for (std::size_t i = close + 2; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      fields.push_back(field);
      field.clear();
    } else {
      field += line[i];
    }
  }
  if (fields.size() < 13) return;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  user_s = std::stod(fields[11]) / tick;
  sys_s = std::stod(fields[12]) / tick;
}

long current_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double pct(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  return harmony::percentile(std::move(xs), p);
}

double median(std::vector<double> xs) { return pct(std::move(xs), 50.0); }

}  // namespace perfbench

// perfbench — the repository benchmark's measuring program.
//
//   perfbench prepare --workload <name> --seed <n> --data <dir>
//   perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --data <dir> [--trace-out <file>]
//
// `prepare` writes the large seeded inputs (prior-run stores) in its own
// process, so their generation never counts as set-up time or peak memory.
// `run` repeats the workload — a cold set-up plus a fixed, seeded set of
// sessions — until --seconds have passed, checks every repetition's outputs
// and prints one JSON result as its last line. With --trace 0 the result
// holds the end-to-end metrics. With --trace 1 it holds the per-layer
// metrics: the untraced repetitions run first for half the time, then the
// same number of repetitions with the span probes on; the two halves must
// agree on every tuner-quality value, and their wall-time ratio is the
// tracing overhead. Exit status: 0 when every check passed, 1 when one
// failed, 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr double kWarmupSeconds = 2.0;
constexpr int kMinReps = 5;
constexpr int kMaxReps = 200;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string data;
  std::string trace_out;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare|run --workload "
               "serve_loopback|tune_websim|recall_history --seed <n> "
               "--data <dir> [--seconds <s>] [--trace 0|1] "
               "[--trace-out <file>]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--data") {
      a.data = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage();
    }
  }
  if ((a.mode != "prepare" && a.mode != "run") || a.data.empty() ||
      a.seconds <= 0.0) {
    usage();
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "serve_loopback") return make_serve_loopback(seed);
  if (name == "tune_websim") return make_tune_websim(seed);
  if (name == "recall_history") return make_recall_history(seed);
  usage();
}

const char* compiler() {
#if defined(__clang__)
  return "clang-" __clang_version__;
#elif defined(__GNUC__)
  return "gcc-" __VERSION__;
#else
  return "unknown";
#endif
}

/// Collects the metrics of one result line, printing a human-readable line
/// (with sample counts) for each as it goes.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::size_t samples, const std::string& how) {
    if (!std::isfinite(value)) value = 0.0;
    std::printf("metric %-36s %16.6f %-6s n=%-8zu %s\n", name.c_str(), value,
                unit, samples, how.c_str());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json_ += std::string(json_.empty() ? "" : ", ") + "\"" + name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] const std::string& json() const { return json_; }

 private:
  std::string json_;
};

std::vector<double> pooled(const std::vector<RepResult>& reps,
                           const std::string& key) {
  std::vector<double> out;
  for (const RepResult& r : reps) {
    auto it = r.samples.find(key);
    if (it != r.samples.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

std::vector<double> per_rep(const std::vector<RepResult>& reps,
                            const std::function<double(const RepResult&)>& f) {
  std::vector<double> out;
  for (const RepResult& r : reps) out.push_back(f(r));
  return out;
}

double rep_value(const std::vector<RepResult>& reps, const std::string& key) {
  std::vector<double> xs;
  for (const RepResult& r : reps) {
    auto it = r.values.find(key);
    if (it != r.values.end()) xs.push_back(it->second);
  }
  return median(xs);
}

void end_to_end(Report& rep, const std::vector<RepResult>& reps,
                std::size_t attempted, std::size_t failed) {
  const std::size_t n = reps.size();
  const std::string med = "median of " + std::to_string(n) + " repetitions";
  rep.add("sessions_per_s", median(per_rep(reps, [](const RepResult& r) {
            return static_cast<double>(r.sessions) / r.wall_s;
          })),
          "1/s", n, med);
  std::size_t steps = 0;
  for (const RepResult& r : reps) steps += r.steps;
  rep.add("step_p50_us", median(per_rep(reps, [](const RepResult& r) {
            return r.step_p50_us;
          })),
          "us", steps,
          "exact p50 per repetition, " + med + "; n = step samples");
  rep.add("setup_s", median(per_rep(reps, [](const RepResult& r) {
            return r.setup_s;
          })),
          "s", n, "median of " + std::to_string(n) + " cold set-ups");
  rep.add("cpu_ms_per_session", median(per_rep(reps, [](const RepResult& r) {
            return r.cpu_s * 1e3 / static_cast<double>(r.sessions);
          })),
          "ms", n, med);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "process peak");
  const std::size_t sessions = reps.front().sessions;
  rep.add("evals_per_session", reps.front().evals, "count", sessions,
          "mean over the sessions of one repetition");
  rep.add("best_perf", reps.front().best, "perf", sessions,
          "mean best value per session");
  rep.add("worst_perf", reps.front().worst, "perf", sessions,
          "mean worst live measurement per session");
  rep.add("success_ratio",
          static_cast<double>(attempted - failed) /
              static_cast<double>(attempted),
          "ratio", attempted,
          "fail_ratio=" +
              std::to_string(static_cast<double>(failed) /
                             static_cast<double>(attempted)) +
              " attempted=" + std::to_string(attempted));
}

void per_layer(Report& rep, const std::vector<RepResult>& traced,
               double untraced_s_per_session) {
  auto pct_of = [&](const std::string& name, const std::string& key,
                    double scale, const char* unit) {
    const std::vector<double> xs = pooled(traced, key);
    rep.add(name, pct(xs, 50.0) * scale, unit, xs.size(), "exact p50");
  };
  auto span_p50 = [&](const std::string& name, const char* span,
                      double scale, const char* unit) {
    const std::vector<double> xs = trace::durations_ns(span);
    rep.add(name, pct(xs, 50.0) * scale, unit, xs.size(),
            std::string("p50 of ") + span + " spans");
  };
  auto value = [&](const std::string& name, const char* unit) {
    rep.add(name, rep_value(traced, name), unit, traced.size(),
            "median over repetitions");
  };
  pct_of("net.connect_us_p50", "net.connect_us", 1.0, "us");
  pct_of("net.signature_us_p50", "net.signature_us", 1.0, "us");
  pct_of("net.fetch_us_p50", "net.fetch_us", 1.0, "us");
  pct_of("net.report_us_p50", "net.report_us", 1.0, "us");
  {
    const std::vector<double> xs = pooled(traced, "net.step_us");
    rep.add("net.step_p99_us", pct(xs, 99.0), "us", xs.size(), "exact p99");
  }
  {
    const std::vector<double> xs = pooled(traced, "tuner.plan_us");
    rep.add("tuner.step_p99_us", pct(xs, 99.0), "us", xs.size(),
            "exact p99 of the in-process step gaps");
  }
  value("service.cpu_user_ms_per_session", "ms");
  value("service.cpu_sys_ms_per_session", "ms");
  value("service.steps_per_batch", "count");
  span_p50("analyzer.fit_ms", "analyzer.fit", 1e-6, "ms");
  span_p50("analyzer.update_us_p50", "analyzer.update", 1e-3, "us");
  rep.add("analyzer.refits_full",
          static_cast<double>(traced.front().refits_full), "count", 1,
          "after set-up, one repetition");
  rep.add("analyzer.refits_incr",
          static_cast<double>(traced.front().refits_incr), "count", 1,
          "after set-up, one repetition");
  span_p50("analyzer.classify_us_p50", "analyzer.classify", 1e-3, "us");
  {
    const std::vector<double> xs = pooled(traced, "store.open_ms");
    rep.add("store.open_ms", median(xs), "ms", xs.size(), "median");
  }
  value("store.log_bytes_per_session", "B");
  pct_of("websim.measure_ms_p50", "websim.measure_ms", 1.0, "ms");
  value("websim.events_per_s", "1/s");
  value("pool.busy_share", "ratio");
  pct_of("tuner.first_step_us_p50", "tuner.first_step_us", 1.0, "us");
  pct_of("tuner.plan_us_p50", "tuner.plan_us", 1.0, "us");
  value("tuner.warm_started_share", "ratio");
  {
    const std::vector<double> xs = pooled(traced, "trace.attributed_share");
    rep.add("trace.attributed_share", median(xs), "ratio", xs.size(),
            "span-covered share of the working threads' time");
  }
  const double traced_s = median(per_rep(traced, [](const RepResult& r) {
    return r.wall_s / static_cast<double>(r.sessions);
  }));
  rep.add("trace.overhead_pct",
          (traced_s / untraced_s_per_session - 1.0) * 100.0, "%",
          traced.size(), "traced vs untraced wall per session");

  std::printf("self time per span (ms, all threads):\n");
  for (const auto& [name, ns] : trace::self_time_ns()) {
    std::printf("  %-28s %12.3f\n", name.c_str(), ns / 1e6);
  }
}

/// Reduces a repetition's step samples to their p50 and, unless the
/// per-layer samples are wanted, drops those too: the raw samples of a long
/// run would otherwise grow the process and show up in peak_rss_mb.
void reduce(RepResult& r, bool keep_layer_samples) {
  r.steps = r.step_us.size();
  r.step_p50_us = pct(r.step_us, 50.0);
  r.step_us = {};
  if (!keep_layer_samples) r.samples = {};
}

void print_rep(const char* kind, std::size_t index, const RepResult& r) {
  std::printf("rep %s %zu: setup %.6f s, %zu sessions in %.6f s (%.3f/s), "
              "cpu %.6f s, step p50 %.4f us, evals %.6f best %.6f worst "
              "%.6f, refits %llu+%llu\n",
              kind, index, r.setup_s, r.sessions, r.wall_s,
              static_cast<double>(r.sessions) / r.wall_s, r.cpu_s,
              r.step_p50_us, r.evals, r.best, r.worst,
              static_cast<unsigned long long>(r.refits_full),
              static_cast<unsigned long long>(r.refits_incr));
}

/// Tuner quality and refits must repeat exactly in every repetition.
bool same_outcome(const RepResult& a, const RepResult& b) {
  return a.evals == b.evals && a.best == b.best && a.worst == b.worst &&
         a.refits_full == b.refits_full && a.refits_incr == b.refits_incr &&
         a.sessions == b.sessions;
}

int run(const Args& args) {
  std::printf("machine nproc=%zu pool_threads=%u simd=%s compiler=%s\n",
              nproc(), harmony::thread_count(),
              harmony::simd_level_name(harmony::simd_level()), compiler());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);

  // Warm-up: the first seconds of load on a VM run measurably faster than
  // the steady state that follows (frequency and host scheduling settle),
  // so they are run and checked but not measured.
  std::vector<RepResult> warmup;
  const std::int64_t warm_start = now_ns();
  while (warmup.empty() ||
         seconds_between(warm_start, now_ns()) < kWarmupSeconds) {
    warmup.push_back(workload->run_rep(args.data, false));
    reduce(warmup.back(), false);
    print_rep("warm-up", warmup.size(), warmup.back());
  }

  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<RepResult> reps;
  const std::int64_t start = now_ns();
  while (static_cast<int>(reps.size()) < kMaxReps &&
         (static_cast<int>(reps.size()) < kMinReps ||
          seconds_between(start, now_ns()) < budget)) {
    reps.push_back(workload->run_rep(args.data, false));
    reduce(reps.back(), false);
    print_rep("untraced", reps.size(), reps.back());
  }
  std::vector<RepResult> traced;
  std::int64_t last_traced_ns = 0;  // start of the exported repetition
  if (args.trace) {
    trace::clear();
    trace::set_enabled(true);
    while (traced.size() < reps.size()) {
      last_traced_ns = now_ns();
      traced.push_back(workload->run_rep(args.data, true));
      reduce(traced.back(), true);
      print_rep("traced", traced.size(), traced.back());
    }
    trace::set_enabled(false);
  }

  // ---- output checks ------------------------------------------------------
  std::vector<std::string> errors;
  std::size_t attempted = 0, failed = 0;
  for (const auto* set : {&warmup, &reps, &traced}) {
    bool same = true;
    for (const RepResult& r : *set) {
      attempted += r.sessions;
      failed += r.failed;
      errors.insert(errors.end(), r.errors.begin(), r.errors.end());
      same = same && same_outcome(r, reps.front());
    }
    if (!same) {
      errors.push_back(
          "tuner quality or refit counts differ between repetitions of one "
          "seed" +
          std::string(set == &traced ? " (traced vs untraced)" : ""));
    }
  }
  std::printf("repetitions %zu warm-up, %zu untraced, %zu traced; sessions "
              "%zu attempted, %zu failed\n",
              warmup.size(), reps.size(), traced.size(), attempted, failed);

  Report report;
  if (args.trace) {
    const double untraced_s = median(per_rep(reps, [](const RepResult& r) {
      return r.wall_s / static_cast<double>(r.sessions);
    }));
    per_layer(report, traced, untraced_s);
    if (!args.trace_out.empty() &&
        !trace::write_chrome_trace(args.trace_out, last_traced_ns)) {
      errors.push_back("cannot write " + args.trace_out);
    }
  } else {
    end_to_end(report, reps, attempted, failed);
  }
  std::sort(errors.begin(), errors.end());
  errors.erase(std::unique(errors.begin(), errors.end()), errors.end());
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false", attempted, failed,
              report.json().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.mode == "prepare") {
      std::filesystem::create_directories(args.data);
      make_workload(args.workload, args.seed)->prepare(args.data);
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

// Bench-side probes around the layers' public entry points.
//
//  * ProbedClassifier wraps the configured classifier (the least-square
//    classifier is final, so the probe decorates it instead of deriving
//    from it) and records fit/update/classify spans. It is installed only
//    in the traced run.
//  * TimedObjective decorates the objective a session measures. It always
//    records the gaps between measurements (the in-process step latency, an
//    end-to-end metric) and measurement time; in the traced run it also
//    records measure, planning and first-step spans.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/objective.hpp"
#include "trace.hpp"
#include "websim/cluster.hpp"

namespace perfbench {

/// Start and end of each probed classify(), keyed by the address of the
/// signature it classified (serve_batch passes each request's own
/// signature). The objective probe of that request turns them into the
/// session's first-step latency. A thread that waits inside a sharded
/// classify helps run other requests, so a thread-local slot would mix
/// sessions up.
class ClassifyLog {
 public:
  static void put(const void* key, std::int64_t start, std::int64_t end) {
    std::lock_guard<std::mutex> lock(mutex());
    entries()[key] = {start, end};
  }
  /// Removes and returns the entry for `key`; false when there is none.
  static bool take(const void* key, std::int64_t& start, std::int64_t& end) {
    std::lock_guard<std::mutex> lock(mutex());
    auto it = entries().find(key);
    if (it == entries().end()) return false;
    start = it->second.first;
    end = it->second.second;
    entries().erase(it);
    return true;
  }

 private:
  static std::mutex& mutex() {
    static std::mutex m;
    return m;
  }
  static std::unordered_map<const void*,
                            std::pair<std::int64_t, std::int64_t>>&
  entries() {
    static std::unordered_map<const void*,
                              std::pair<std::int64_t, std::int64_t>>
        e;
    return e;
  }
};

class ProbedClassifier final : public harmony::Classifier {
 public:
  using Classifier::classify;

  explicit ProbedClassifier(std::shared_ptr<harmony::Classifier> inner)
      : inner_(std::move(inner)) {}

  void fit(const harmony::SignatureView& view) override {
    ScopedSpan span("analyzer.fit");
    inner_->fit(view);
    set_fitted(view);
  }

  std::size_t classify(
      const harmony::WorkloadSignature& observed) const override {
    const std::int64_t start = now_ns();
    std::size_t index = 0;
    {
      ScopedSpan span("analyzer.classify");
      index = inner_->classify(observed);
    }
    ClassifyLog::put(&observed, start, now_ns());
    return index;
  }

  std::string name() const override { return inner_->name(); }

 protected:
  // refit() only calls this when the view extends the fitted append chain;
  // the inner classifier then takes the same delta path through its own
  // public refit().
  bool update(const harmony::SignatureView& view,
              std::size_t /*first_new_row*/) override {
    ScopedSpan span("analyzer.update");
    inner_->refit(view);
    return true;
  }

 private:
  std::shared_ptr<harmony::Classifier> inner_;
};

/// The workloads' classifier: least-square, wrapped in the probe for the
/// traced run.
inline std::shared_ptr<harmony::Classifier> make_classifier(bool traced) {
  auto classifier = std::make_shared<harmony::LeastSquareClassifier>();
  if (!traced) return classifier;
  return std::make_shared<ProbedClassifier>(classifier);
}

/// Per-session measurement probe. Not thread-safe: one instance per
/// session, as serve_batch requires of its objectives anyway.
class TimedObjective final : public harmony::Objective {
 public:
  /// `signature` is the request's own signature (the ClassifyLog key);
  /// `sim` (optional) is read for DES event counts after each measurement.
  TimedObjective(harmony::Objective& inner, const char* span_name,
                 std::uint64_t session, const void* signature,
                 const harmony::websim::ClusterObjective* sim = nullptr)
      : inner_(inner), span_name_(span_name), session_(session),
        signature_(signature), sim_(sim) {}

  double measure(const harmony::Configuration& config) override {
    const std::int64_t start = now_ns();
    const bool traced = trace::enabled();
    if (last_end_ns_ != 0) {
      gaps_ns.push_back(static_cast<double>(start - last_end_ns_));
      if (traced) trace::record("tuner.plan", last_end_ns_, start, session_);
    } else if (std::int64_t c0 = 0, c1 = 0;
               traced && ClassifyLog::take(signature_, c0, c1)) {
      first_step_ns = static_cast<double>(start - c0);
      trace::record("tuner.first_step", c1, start, session_);
    }
    double value = 0.0;
    {
      ScopedSpan span(span_name_, session_);
      value = inner_.measure(config);
    }
    last_end_ns_ = now_ns();
    const double took = static_cast<double>(last_end_ns_ - start);
    measure_ns.push_back(took);
    if (sim_ != nullptr) events += sim_->last_metrics().events;
    return value;
  }

  std::string metric_name() const override { return inner_.metric_name(); }

  std::vector<double> gaps_ns;     ///< measurement end -> next start
  std::vector<double> measure_ns;  ///< per-measurement wall time
  double first_step_ns = -1.0;     ///< classify start -> first measure
  std::uint64_t events = 0;        ///< DES events (websim objectives)

 private:
  harmony::Objective& inner_;
  const char* span_name_;
  std::uint64_t session_;
  const void* signature_;
  const harmony::websim::ClusterObjective* sim_;
  std::int64_t last_end_ns_ = 0;
};

}  // namespace perfbench

// Deterministic batch-evaluation layer between the experiment drivers
// (sensitivity sweeps, factorial designs, baseline searchers, bench repeat
// fan-out) and the Objective batch API.
//
// The evaluator owns the shape of a fan-out — flattening (point × repeat)
// grids into one batch, averaging repeats back, slicing oversized
// enumerations into bounded blocks — while Objective::measure_batch owns
// the execution. Because batch results are defined to equal the serial
// loop's (objective.hpp), everything built on this layer is bit-identical
// at any HARMONY_THREADS setting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/objective.hpp"
#include "core/parameter.hpp"

namespace harmony {

class ParallelEvaluator {
 public:
  explicit ParallelEvaluator(Objective& objective) : objective_(objective) {}

  /// Fault-tolerant evaluator: when `policy.enabled()`, every batch goes
  /// through the fallible path (Objective::try_measure_batch) with retry
  /// rounds per the policy, and measurements whose retries are exhausted
  /// come back as policy.censored_value. Retry accounting accumulates in
  /// retry_stats(). A default policy reproduces the infallible path
  /// bit-exactly (and skips the outcome machinery entirely).
  ParallelEvaluator(Objective& objective, RetryPolicy policy)
      : objective_(objective), policy_(policy) {}

  /// Batch-evaluates configs (index order, like a serial measure() loop).
  [[nodiscard]] std::vector<double> evaluate(
      std::span<const Configuration> configs);

  /// Allocation-free form of evaluate(): writes configs[i]'s value into
  /// out[i] (sizes must match). The speculative simplex driver calls this
  /// every kernel step with reused buffers.
  void evaluate_into(std::span<const Configuration> configs,
                     std::span<double> out);

  /// evaluate_into plus per-index censoring flags: (*censored)[i] is 1 when
  /// configs[i] exhausted its retries and out[i] is the censored penalty
  /// (always all-zero under a default policy). `censored` may be null.
  void evaluate_into(std::span<const Configuration> configs,
                     std::span<double> out,
                     std::vector<std::uint8_t>* censored);

  /// The width-1 case without a batch: measure() under a disabled policy,
  /// measure_with_retry (try_measure) otherwise. Returns the value, or the
  /// policy's censored penalty with `censored` set once retries ran out.
  [[nodiscard]] double evaluate_one(const Configuration& config,
                                    bool& censored);

  /// Evaluates each config `repeats` times — flattened config-major,
  /// repeat-minor, exactly the order a serial repeat loop issues — and
  /// returns the raw samples: result[i] holds config i's repeats in draw
  /// order, so callers can reduce them (mean, variance) with the same
  /// floating-point accumulation order the serial code used.
  [[nodiscard]] std::vector<std::vector<double>> evaluate_repeated(
      std::span<const Configuration> configs, int repeats);

  /// Per-config means of evaluate_repeated (summed in repeat order).
  [[nodiscard]] std::vector<double> evaluate_means(
      std::span<const Configuration> configs, int repeats);

  [[nodiscard]] const RetryPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const RetryStats& retry_stats() const noexcept {
    return stats_;
  }

 private:
  Objective& objective_;
  RetryPolicy policy_{};
  RetryStats stats_;
};

}  // namespace harmony

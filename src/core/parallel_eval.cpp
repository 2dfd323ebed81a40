#include "core/parallel_eval.hpp"

#include "util/error.hpp"

namespace harmony {

std::vector<double> ParallelEvaluator::evaluate(
    std::span<const Configuration> configs) {
  std::vector<double> out(configs.size());
  evaluate_into(configs, out);
  return out;
}

void ParallelEvaluator::evaluate_into(std::span<const Configuration> configs,
                                      std::span<double> out) {
  evaluate_into(configs, out, nullptr);
}

void ParallelEvaluator::evaluate_into(std::span<const Configuration> configs,
                                      std::span<double> out,
                                      std::vector<std::uint8_t>* censored) {
  if (!policy_.enabled()) {
    // Legacy infallible path, bit for bit and allocation for allocation.
    if (censored != nullptr) censored->assign(configs.size(), 0);
    objective_.measure_batch(configs, out);
    return;
  }
  measure_batch_with_retry(objective_, configs, policy_, out, censored,
                           stats_);
}

double ParallelEvaluator::evaluate_one(const Configuration& config,
                                       bool& censored) {
  censored = false;
  if (!policy_.enabled()) return objective_.measure(config);
  const MeasurementOutcome o =
      measure_with_retry(objective_, config, policy_, stats_);
  censored = !o.ok();
  return censored ? policy_.censored_value : o.value;
}

std::vector<std::vector<double>> ParallelEvaluator::evaluate_repeated(
    std::span<const Configuration> configs, int repeats) {
  HARMONY_REQUIRE(repeats >= 1, "repeats must be >= 1");
  std::vector<Configuration> flat;
  flat.reserve(configs.size() * static_cast<std::size_t>(repeats));
  for (const Configuration& c : configs) {
    for (int r = 0; r < repeats; ++r) flat.push_back(c);
  }
  std::vector<double> values(flat.size());
  evaluate_into(flat, values);
  std::vector<std::vector<double>> out(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::size_t base = i * static_cast<std::size_t>(repeats);
    out[i].assign(values.begin() + static_cast<std::ptrdiff_t>(base),
                  values.begin() + static_cast<std::ptrdiff_t>(base) +
                      repeats);
  }
  return out;
}

std::vector<double> ParallelEvaluator::evaluate_means(
    std::span<const Configuration> configs, int repeats) {
  const auto samples = evaluate_repeated(configs, repeats);
  std::vector<double> means(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    double sum = 0.0;
    for (double v : samples[i]) sum += v;
    means[i] = sum / repeats;
  }
  return means;
}

}  // namespace harmony

// The benchmark's workloads; each file states why it exists.
#pragma once

#include <cstdint>
#include <memory>

#include "common.hpp"

namespace perfbench {

[[nodiscard]] std::unique_ptr<Workload> make_serve_loopback(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_tune_websim(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_recall_history(std::uint64_t seed);

}  // namespace perfbench

// Golden-value regression lock for the cluster simulator.
//
// The DES hot path is aggressively optimized (inline callbacks, slab
// requests, pre-resolved profiles, precomputed service constants); this test
// pins the simulator's observable output bit-for-bit so any future
// "harmless" reordering of RNG draws or floating-point operations fails
// loudly instead of silently shifting every experiment in the repo.
//
// The expected values were captured from the pre-optimization simulator
// (exact hexfloat doubles, not rounded decimals) and must never drift.
// EXPECT_EQ on double is exact comparison — that is the point.
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/parameter.hpp"
#include "util/thread_pool.hpp"
#include "websim/cluster.hpp"
#include "websim/config.hpp"
#include "websim/tpcw.hpp"

namespace harmony::websim {
namespace {

TEST(GoldenMetrics, DefaultConfigShoppingMixSeed42) {
  SimOptions opts;
  opts.seed = 42;
  opts.measure_s = 10.0;
  const SimMetrics m = simulate_cluster(ClusterConfig{}, opts);

  EXPECT_EQ(m.completed, 1013u);
  EXPECT_EQ(m.dropped, 0u);
  EXPECT_EQ(m.events, 7677u);
  EXPECT_EQ(m.wips, 0x1.9533333333333p+6);           // 101.3
  EXPECT_EQ(m.mean_latency_ms, 0x1.d7b763bf8975ep+8);  // 471.716365786...
  EXPECT_EQ(m.p95_latency_ms, 0x1.1d0d82b1098a2p+10);  // 1140.21110177...
  EXPECT_EQ(m.drop_rate, 0x0p+0);
  EXPECT_EQ(m.cache_hit_rate, 0x1.91a3bb4039e4ep-2);
}

TEST(GoldenMetrics, TunedConfigOrderingMixSeed7) {
  ClusterConfig cfg;
  cfg.ajp_max_processors = 40;
  cfg.mysql_net_buffer_kb = 4;
  cfg.proxy_cache_mb = 512;
  cfg.mysql_max_connections = 12;

  SimOptions opts;
  opts.mix = WorkloadMix::ordering();
  opts.seed = 7;
  opts.measure_s = 8.0;
  opts.emulated_browsers = 200;
  opts.session_persistence = 0.3;
  const SimMetrics m = simulate_cluster(cfg, opts);

  EXPECT_EQ(m.completed, 542u);
  EXPECT_EQ(m.dropped, 692u);
  EXPECT_EQ(m.events, 8153u);
  EXPECT_EQ(m.wips, 0x1.0fp+6);                        // 67.75
  EXPECT_EQ(m.mean_latency_ms, 0x1.22f84f8dc759cp+10);  // 1163.87985558...
  EXPECT_EQ(m.p95_latency_ms, 0x1.d2d57155267acp+11);   // 3734.67008454...
  EXPECT_EQ(m.drop_rate, 0x1.1f1e49daa8743p-1);
  EXPECT_EQ(m.cache_hit_rate, 0x1.95668fbf64f24p-1);
}

// The batch evaluation path must reproduce the serial stream exactly at any
// thread count: seeds are drawn serially in index order, each run is a pure
// function of (config, seed), and results land in pre-assigned slots.
TEST(GoldenMetrics, MeasureBatchBitIdenticalAcrossThreadCounts) {
  SimOptions opts;
  opts.seed = 42;
  opts.measure_s = 5.0;

  const ParameterSpace space = ClusterConfig::parameter_space();
  std::vector<Configuration> configs;
  for (int i = 0; i < 6; ++i) {
    Configuration c = space.defaults();
    c[1] = 8.0 + 4.0 * i;  // AJPMaxProcessors: 8, 12, ..., 28
    configs.push_back(space.snap(std::move(c)));
  }

  auto run_at = [&](unsigned threads) {
    set_thread_count(threads);
    ClusterObjective obj(opts);
    std::vector<double> out(configs.size(), 0.0);
    obj.measure_batch(configs, out);
    return out;
  };

  const std::vector<double> serial = run_at(1);
  const std::vector<double> parallel = run_at(8);
  set_thread_count(0);  // restore environment / hardware default

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "config " << i;
  }
}

}  // namespace
}  // namespace harmony::websim

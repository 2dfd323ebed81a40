// DES event-throughput micro-benchmark, tracked in BENCH_timings.json.
//
// Three hot paths, each reported as events/second (best of several runs so
// machine noise shrinks the number, never inflates it):
//   des_burst   many pending events with simulator-sized captures — the
//               schedule-heavy phase (queue pressure, event moves)
//   des_chain   one event scheduling the next — steady-state schedule +
//               dispatch latency with a warm queue
//   cluster     a full simulate_cluster run — the end-to-end number every
//               objective evaluation pays
//
// tools/run_benches.sh scrapes the `EVENTS_PER_SEC` markers into
// BENCH_timings.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>

#include "bench/bench_common.hpp"
#include "util/table.hpp"
#include "websim/cluster.hpp"
#include "websim/des.hpp"

using namespace harmony;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Capture sized like the simulator's own event closures (a few pointers
/// plus flags), well above std::function's 16-byte inline buffer.
struct Payload {
  std::uint64_t words[6] = {};
};

double des_burst_rate(std::size_t events, int repeats) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    websim::Simulation sim;
    sim.reserve_events(events);
    std::uint64_t sink = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < events; ++i) {
      Payload payload;
      payload.words[0] = i;
      sim.schedule(1e-6 * static_cast<double>(i % 97),
                   [&sink, payload] { sink += payload.words[0]; });
    }
    sim.run_until(1.0);
    const double secs = seconds_since(start);
    if (sink == 0) std::abort();  // defeat dead-code elimination
    best = std::max(best, static_cast<double>(events) / secs);
  }
  return best;
}

double des_chain_rate(std::size_t events, int repeats) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    websim::Simulation sim;
    // A warm queue of background events, as in a real run where every
    // browser holds a pending timer.
    std::uint64_t sink = 0;
    for (int i = 0; i < 256; ++i) {
      Payload payload;
      payload.words[0] = static_cast<std::uint64_t>(i) + 1;
      sim.schedule(1e9 + i, [&sink, payload] { sink += payload.words[0]; });
    }
    std::uint64_t fired = 0;
    const std::uint64_t target = events;
    const auto start = Clock::now();
    struct Chain {
      websim::Simulation* sim;
      std::uint64_t* fired;
      std::uint64_t target;
      void operator()() const {
        if (++*fired < target) sim->schedule(0.001, *this);
      }
    };
    sim.schedule(0.001, Chain{&sim, &fired, target});
    sim.run_until(1e8);
    const double secs = seconds_since(start);
    best = std::max(best, static_cast<double>(fired) / secs);
  }
  return best;
}

double cluster_rate(int repeats) {
  websim::SimOptions opts;
  opts.seed = 5;
  opts.measure_s = 20.0;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    const auto m = websim::simulate_cluster(websim::ClusterConfig{}, opts);
    const double secs = seconds_since(start);
    best = std::max(best, static_cast<double>(m.events) / secs);
  }
  return best;
}

}  // namespace

int main() {
  bench::section("websim events/sec (DES hot-path throughput)");

  const double burst = des_burst_rate(200000, 5);
  const double chain = des_chain_rate(500000, 5);
  const double cluster = cluster_rate(5);

  Table table({"bench", "events_per_sec"});
  table.add_row({"des_burst", Table::num(burst, 0)});
  table.add_row({"des_chain", Table::num(chain, 0)});
  table.add_row({"cluster", Table::num(cluster, 0)});
  bench::print_table(table, "websim_events_per_sec");

  // Marker lines scraped by tools/run_benches.sh into BENCH_timings.json.
  std::printf("EVENTS_PER_SEC des_burst %.0f\n", burst);
  std::printf("EVENTS_PER_SEC des_chain %.0f\n", chain);
  std::printf("EVENTS_PER_SEC cluster %.0f\n", cluster);
  return 0;
}

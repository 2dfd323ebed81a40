#include "websim/des.hpp"

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace harmony::websim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulation, SimultaneousEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, NowAdvancesWithEvents) {
  Simulation sim;
  double seen = -1.0;
  sim.schedule(2.5, [&] { seen = sim.now(); });
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // advances to the deadline
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) sim.schedule(1.0, chain);
  };
  sim.schedule(1.0, chain);
  sim.run_until(100.0);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(5.0);  // event exactly at deadline still runs
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(0.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RejectsPastAndNullEvents) {
  Simulation sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), Error);
  EXPECT_THROW(sim.schedule_at(-0.5, [] {}), Error);
  EXPECT_THROW(sim.schedule(1.0, nullptr), Error);
}

TEST(Simulation, ScheduleAtRejectsTimesBeforeNow) {
  Simulation sim;
  sim.schedule(2.0, [] {});
  sim.run_until(2.0);  // now() == 2.0
  EXPECT_THROW(sim.schedule_at(1.5, [] {}), Error);
  sim.schedule_at(2.0, [] {});  // exactly now() is allowed
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, EqualTimeEventsInterleaveFifoAcrossScheduleVariants) {
  Simulation sim;
  std::vector<int> order;
  // Mix relative and absolute scheduling at the same instant; execution
  // must follow scheduling order regardless of which API queued the event.
  sim.schedule(1.0, [&] { order.push_back(0); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulation, FifoOrderSurvivesNestedSameTimeScheduling) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] {
    order.push_back(0);
    // Scheduled mid-event at the current time: runs after everything that
    // was already queued for t=1.
    sim.schedule(0.0, [&] { order.push_back(3); });
    sim.schedule_at(sim.now(), [&] { order.push_back(4); });
  });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ReserveEventsPreservesBehaviour) {
  Simulation a, b;
  b.reserve_events(1024);
  std::vector<int> order_a, order_b;
  for (int i = 0; i < 200; ++i) {
    const double t = static_cast<double>((i * 37) % 11);
    a.schedule(t, [&order_a, i] { order_a.push_back(i); });
    b.schedule(t, [&order_b, i] { order_b.push_back(i); });
  }
  a.run_until(20.0);
  b.run_until(20.0);
  EXPECT_EQ(order_a, order_b);
  EXPECT_EQ(a.executed_events(), 200u);
}

// ---------------------------------------------------------------------------
// Calendar queue vs a binary heap: the heap is the textbook (time, seq)
// priority queue, so any workload must pop in the same order from both.

/// Differential oracle: a std::priority_queue min-heap on (time, seq) with
/// the scheduling surface the trace workloads use.
class HeapReference {
 public:
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  void schedule(SimTime delay, std::function<void()> action) {
    schedule_at(now_ + delay, std::move(action));
  }

  void schedule_at(SimTime when, std::function<void()> action) {
    queue_.push(Event{when, seq_++, std::move(action)});
  }

  void run_until(SimTime deadline) {
    while (!queue_.empty() && queue_.top().time <= deadline) {
      const Event ev = queue_.top();
      queue_.pop();
      now_ = ev.time;
      ev.action();
    }
    if (now_ < deadline) now_ = deadline;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
};

/// Runs `feed(sim, out)` on a fresh `Sim` then drains, recording
/// (index, now) per event.
template <typename Sim, typename Feed>
std::vector<std::pair<int, double>> trace(Feed feed) {
  Sim sim;
  std::vector<std::pair<int, double>> out;
  feed(sim, out);
  sim.run_until(1e301);  // past every test event, including far-future ones
  return out;
}

TEST(CalendarQueue, MatchesHeapOnRandomWorkload) {
  // Deterministic pseudo-random times quantized to force plenty of ties,
  // with a slice of events scheduling follow-ups from inside callbacks.
  auto feed = [](auto& sim, std::vector<std::pair<int, double>>& out) {
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (int i = 0; i < 5000; ++i) {
      const double t = 1e-3 * static_cast<double>(next() % 800);
      if (i % 7 == 0) {
        sim.schedule(t, [&sim, &out, i] {
          out.emplace_back(i, sim.now());
          sim.schedule(0.25, [&out, i] { out.emplace_back(i + 10000, 0.0); });
        });
      } else {
        sim.schedule(t, [&sim, &out, i] { out.emplace_back(i, sim.now()); });
      }
    }
  };
  EXPECT_EQ(trace<Simulation>(feed), trace<HeapReference>(feed));
}

TEST(CalendarQueue, EqualTimeFloodStaysFifo) {
  // The calendar queue's worst case: a few distinct timestamps shared by
  // thousands of events. FIFO within each timestamp must hold exactly.
  Simulation sim;
  sim.reserve_events(7000);
  std::vector<int> order;
  for (int i = 0; i < 7000; ++i) {
    sim.schedule(0.5 * static_cast<double>(i % 7),
                 [&order, i] { order.push_back(i); });
  }
  sim.run_until(10.0);
  ASSERT_EQ(order.size(), 7000u);
  std::vector<int> expected;
  expected.reserve(7000);
  for (int t = 0; t < 7; ++t) {
    for (int i = t; i < 7000; i += 7) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(CalendarQueue, HandlesExtremeTimeScales) {
  // Nanosecond-spaced events next to events eons ahead: the probe scan
  // must give up after one lap and fall back to a direct root search
  // without losing order.
  auto feed = [](auto& sim, std::vector<std::pair<int, double>>& out) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule(1e-9 * static_cast<double>(i),
                   [&sim, &out, i] { out.emplace_back(i, sim.now()); });
      sim.schedule(1e12 + 3600.0 * static_cast<double>(i),
                   [&sim, &out, i] { out.emplace_back(i + 100, sim.now()); });
      sim.schedule(1e300,
                   [&sim, &out, i] { out.emplace_back(i + 200, sim.now()); });
    }
  };
  EXPECT_EQ(trace<Simulation>(feed), trace<HeapReference>(feed));
}

TEST(CalendarQueue, SurvivesGrowthDrainAndRegrowth) {
  // Push through several width-recalibration rebuilds (population doubles
  // on the way up, quarters on the way down), twice, checking the pop
  // stream against the heap backend each time.
  auto feed = [](auto& sim, std::vector<std::pair<int, double>>& out) {
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < 3000; ++i) {
        const double t = sim.now() + 1e-6 * static_cast<double>((i * 131) % 977);
        sim.schedule_at(t, [&sim, &out, i, round] {
          out.emplace_back(round * 100000 + i, sim.now());
        });
      }
      sim.run_until(sim.now() + 1.0);
    }
  };
  EXPECT_EQ(trace<Simulation>(feed), trace<HeapReference>(feed));
}

TEST(CalendarQueue, ReserveEventsPreSizesBuckets) {
  // A reserved calendar must behave identically to an unreserved one while
  // interleaving schedules and pops (pops trigger bucket-array use early).
  auto run = [](bool reserve) {
    Simulation sim;
    if (reserve) sim.reserve_events(4096);
    std::vector<int> order;
    for (int i = 0; i < 2000; ++i) {
      sim.schedule(1e-3 * static_cast<double>((i * 61) % 401),
                   [&order, i] { order.push_back(i); });
      if (i % 3 == 0) sim.step();
    }
    sim.run_until(10.0);
    return order;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(CalendarQueue, PendingEventsTracksTheQueue) {
  Simulation sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  for (int i = 0; i < 10; ++i) sim.schedule(1.0 + i, [] {});
  EXPECT_EQ(sim.pending_events(), 10u);
  sim.step();
  EXPECT_EQ(sim.pending_events(), 9u);
  sim.run_until(100.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 10u);
}

}  // namespace
}  // namespace harmony::websim

// Discrete-event simulation engine.
//
// Minimal but complete: a time-ordered event queue with stable FIFO
// ordering for simultaneous events, deadline-bounded execution, and event
// accounting. All simulator components (stations, browsers, queues) are
// built on `schedule`/`now`.
//
// The queue is a calendar queue of intrusive pairing heaps (see DESIGN.md
// §11): pending events are per-slot nodes, each bucket holds one pairing
// heap, inserts are O(1) melds and pops amortize to O(log bucket). Bucket
// width recalibrates deterministically from the median positive gap of
// sampled pending times when the population doubles or quarters; the
// bucket count only grows (powers of two). Equal-time floods degrade
// gracefully to a single pairing heap. Pops follow the (time, seq) total
// order exactly; the des tests check that against a binary-heap reference.
//
// The hot path is allocation-free and copy-free in steady state:
//   * Event callbacks are fixed-capacity inline callables — scheduling
//     never heap-allocates, and captures that do not fit fail to compile.
//   * Callbacks live in chunked slot storage with stable addresses. The
//     templated schedule path constructs the callable directly in its slot
//     (zero intermediate moves) and dispatch invokes it in place.
//   * Queue entries are plain data (time + packed seq/slot), so
//     pairing-heap melds never touch callback storage, and calendar
//     rebuilds reuse reserved bucket capacity.
// Warm free lists (or a reserve_events() call) make schedule/step perform
// zero heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/inline_function.hpp"

namespace harmony::websim {

using SimTime = double;  ///< seconds of simulated time

class Simulation {
 public:
  /// Inline storage for one event callback. Sized for the simulator's
  /// largest closure (a station completion: the station pointer plus an
  /// inline Done callable); captures that do not fit fail to compile.
  static constexpr std::size_t kActionCapacity = 64;
  using Action = util::InlineFunction<void(), kActionCapacity>;

  /// Current simulated time (0 at construction).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` `delay` seconds from now (delay >= 0; negative
  /// delays throw). Events at equal times run in scheduling order.
  /// The templated overload constructs the callable directly in its event
  /// slot; the Action overload accepts a pre-built callable (and rejects a
  /// null one).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Action> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void schedule(SimTime delay, F&& f) {
    HARMONY_REQUIRE(delay >= 0.0, "cannot schedule in the past");
    schedule_at(now_ + delay, std::forward<F>(f));
  }
  void schedule(SimTime delay, Action action);

  /// Schedules at an absolute time >= now().
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Action> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void schedule_at(SimTime when, F&& f) {
    HARMONY_REQUIRE(when >= now_, "cannot schedule before now");
    const std::uint32_t s = acquire_slot();
    slot(s).emplace(std::forward<F>(f));
    push_event(when, s);
  }
  void schedule_at(SimTime when, Action action);

  /// Pre-sizes the calendar bucket array and the callback slot pool for
  /// roughly `n` simultaneously-pending events, avoiding reallocation churn
  /// in schedule-heavy phases.
  void reserve_events(std::size_t n);

  /// Executes the next event; false when the queue is empty.
  bool step();

  /// Runs until the queue empties or simulated time would exceed
  /// `deadline`. Events scheduled exactly at the deadline still run.
  void run_until(SimTime deadline);

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return executed_;
  }

  /// Events still pending.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return count_;
  }

 private:
  // 16-byte queue entry: scheduling order (seq) and the callback's slot
  // index share one word. 40 bits of seq bound a simulation to ~10^12
  // events; 24 bits of slot bound it to ~16.7M simultaneously-pending
  // events — both enforced in schedule_at.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);

  // Chunked slot storage: addresses are stable across growth, so step()
  // can run a callback in place while it schedules further events.
  static constexpr std::size_t kSlotChunkShift = 9;  // 512 actions per chunk
  static constexpr std::size_t kSlotChunkSize = std::size_t{1}
                                                << kSlotChunkShift;
  [[nodiscard]] Action& slot(std::uint32_t s) noexcept {
    return slot_chunks_[s >> kSlotChunkShift][s & (kSlotChunkSize - 1)];
  }

  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_slots_.empty()) add_slot_chunk();  // cold: amortised growth
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    if (s + 1 > watermark_) watermark_ = s + 1;
    return s;
  }

  void push_event(SimTime when, std::uint32_t s) {
    HARMONY_REQUIRE(seq_ < kMaxSeq, "event sequence space exhausted");
    calendar_push(when, s, (seq_++ << kSlotBits) | s);
  }

  void add_slot_chunk();

  // ------------------------------------------------------ calendar queue
  // Pending events are pairing-heap nodes addressed by their callback slot
  // index: time/key carry the order, child/sibling the intrusive links
  // (kNil = none). A node is one 24-byte struct, so a meld touches one
  // cache line per node instead of four parallel arrays. time < 0 marks a
  // free slot so rebuilds can walk [0, watermark_) without touching heap
  // structure.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kMinBuckets = 64;   // first bucket array
  static constexpr std::size_t kMinRebuild = 32;   // hysteresis floor
  // Equal-time events are the calendar queue's worst case (every event in
  // one pairing heap), so each heap node is a *group head* with an
  // intrusive FIFO chain of events sharing its exact timestamp: appends
  // and chain pops are O(1) and skip the heap entirely. Chaining is
  // opportunistic — an equal-time event that does not match its bucket's
  // root still melds in as a separate head, which stays correct because
  // (time, key) is a total order either way.
  struct Node {
    double time;
    std::uint64_t key;  ///< (seq << kSlotBits) | slot
    std::uint32_t child;
    std::uint32_t sibling;
    std::uint32_t next;  ///< FIFO chain of equal-time events
    std::uint32_t tail;  ///< last chain member (meaningful on group heads)
  };

  [[nodiscard]] bool ev_less(std::uint32_t a, std::uint32_t b) const noexcept {
    // seq occupies the high bits of key, so comparing keys at equal times
    // is exactly FIFO scheduling order.
    const Node& na = nodes_[a];
    const Node& nb = nodes_[b];
    if (na.time != nb.time) return na.time < nb.time;
    return na.key < nb.key;
  }
  [[nodiscard]] std::uint64_t vbucket(double t) const noexcept;
  [[nodiscard]] std::uint32_t meld(std::uint32_t a,
                                   std::uint32_t b) noexcept;
  void bucket_insert(std::uint32_t s);
  void calendar_push(SimTime when, std::uint32_t s, std::uint64_t key);
  [[nodiscard]] std::uint32_t calendar_min();
  void calendar_remove_min(std::uint32_t s);
  void calendar_rebuild(std::size_t min_buckets);

  std::vector<std::unique_ptr<Action[]>> slot_chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Node> nodes_;  ///< per-slot pairing-heap node; time -1 = free
  std::vector<std::uint32_t> bucket_head_;  ///< pairing-heap root per bucket
  std::size_t nb_ = 0;          ///< bucket count (power of two, grow-only)
  double width_ = 1.0;          ///< seconds of simulated time per bucket
  double inv_width_ = 1.0;
  std::size_t count_ = 0;       ///< pending events
  std::size_t rebuild_size_ = kMinRebuild;  ///< population at last rebuild
  std::uint32_t cached_min_ = kNil;  ///< slot of the global min, if known
  std::uint32_t watermark_ = 0;      ///< one past the highest slot ever used

  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  // Pop-order micro-assert state (checked in debug builds only).
  SimTime last_pop_time_ = 0.0;
  std::uint64_t last_pop_key_ = 0;
};

}  // namespace harmony::websim

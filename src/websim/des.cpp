#include "websim/des.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "util/error.hpp"

namespace harmony::websim {

void Simulation::schedule(SimTime delay, Action action) {
  HARMONY_REQUIRE(delay >= 0.0, "cannot schedule in the past");
  schedule_at(now_ + delay, std::move(action));
}

void Simulation::schedule_at(SimTime when, Action action) {
  HARMONY_REQUIRE(when >= now_, "cannot schedule before now");
  HARMONY_REQUIRE(static_cast<bool>(action), "null event action");
  const std::uint32_t s = acquire_slot();
  slot(s) = std::move(action);
  push_event(when, s);
}

void Simulation::add_slot_chunk() {
  HARMONY_REQUIRE(slot_chunks_.size() * kSlotChunkSize <= kSlotMask,
                  "too many pending events");
  const auto base =
      static_cast<std::uint32_t>(slot_chunks_.size() * kSlotChunkSize);
  slot_chunks_.push_back(std::make_unique<Action[]>(kSlotChunkSize));
  const std::size_t cap = slot_chunks_.size() * kSlotChunkSize;
  free_slots_.reserve(cap);
  // Lowest slot index on top of the free list, for locality.
  for (std::size_t i = kSlotChunkSize; i > 0; --i) {
    free_slots_.push_back(base + static_cast<std::uint32_t>(i - 1));
  }
  // Calendar nodes are indexed by slot: grow in lock-step so a pending
  // event's (time, key, links) always has backing storage.
  nodes_.resize(cap, Node{-1.0, 0, kNil, kNil, kNil, kNil});
}

void Simulation::reserve_events(std::size_t n) {
  while (slot_chunks_.size() * kSlotChunkSize < n) add_slot_chunk();
  const std::size_t cap = slot_chunks_.size() * kSlotChunkSize;
  if (free_slots_.size() == cap) {
    // Bulk growth stacked each new chunk's slots on top of the previous
    // chunk's, so slots would be handed out from the *last* chunk first.
    // Regenerate the free list descending so the lowest indices go out
    // first: the active slot range stays dense, which keeps node accesses
    // local and rebuild walks proportional to the live population.
    for (std::size_t i = 0; i < cap; ++i) {
      free_slots_[i] = static_cast<std::uint32_t>(cap - 1 - i);
    }
  }
  // Pre-size the calendar bucket array too, so a reserved schedule burst
  // never reallocates it mid-flight (later rebuilds reuse the capacity
  // through assign()).
  std::size_t target = kMinBuckets;
  while (target < n) target <<= 1;
  if (target > nb_) {
    if (count_ == 0) {
      bucket_head_.assign(target, kNil);
      nb_ = target;
    } else {
      calendar_rebuild(target);
    }
  }
}

std::uint64_t Simulation::vbucket(double t) const noexcept {
  const double p = t * inv_width_;
  // Clamp far-future times: beyond ~9e18 the uint64 cast would be UB and a
  // day index meaningless anyway — everything lands in one final virtual
  // bucket and degrades to a single pairing heap there.
  if (p >= 9.0e18) return std::uint64_t{1} << 62;
  return static_cast<std::uint64_t>(p);
}

std::uint32_t Simulation::meld(std::uint32_t a, std::uint32_t b) noexcept {
  // Pairing-heap meld: the loser becomes the winner's first child. Keys
  // are unique, so the (time, key) order is total and pops follow it
  // exactly.
  if (ev_less(b, a)) std::swap(a, b);
  nodes_[b].sibling = nodes_[a].child;
  nodes_[a].child = b;
  return a;
}

// Inserts node s (time/key set, links cleared, tail = s) into its bucket:
// appended to the root's FIFO chain when it shares the root's exact
// timestamp and extends the chain's key order, else melded in as a fresh
// heap node. The key-order guard matters only for rebuilds, which revisit
// live nodes in slot order rather than seq order.
void Simulation::bucket_insert(std::uint32_t s) {
  const auto b =
      static_cast<std::size_t>(vbucket(nodes_[s].time) & (nb_ - 1));
  const std::uint32_t root = bucket_head_[b];
  if (root == kNil) {
    bucket_head_[b] = s;
    return;
  }
  Node& rn = nodes_[root];
  if (rn.time == nodes_[s].time && nodes_[rn.tail].key < nodes_[s].key) {
    nodes_[rn.tail].next = s;
    rn.tail = s;
    return;
  }
  bucket_head_[b] = meld(root, s);
}

void Simulation::calendar_push(SimTime when, std::uint32_t s,
                               std::uint64_t key) {
  if (nb_ == 0) {
    bucket_head_.assign(kMinBuckets, kNil);
    nb_ = kMinBuckets;
  }
  nodes_[s] = Node{when, key, kNil, kNil, kNil, s};
  bucket_insert(s);
  ++count_;
  if (count_ == 1 || (cached_min_ != kNil && ev_less(s, cached_min_))) {
    cached_min_ = s;
  }
  // Population doubled since the last rebuild: recalibrate the bucket
  // width (and grow the bucket array if the target outgrew it).
  if (count_ > rebuild_size_ * 2) calendar_rebuild(0);
}

std::uint32_t Simulation::calendar_min() {
  if (cached_min_ != kNil) return cached_min_;
  const std::uint64_t mask = nb_ - 1;
  std::uint64_t v = vbucket(now_);
  // All pending times are >= now_, so their virtual buckets are >= v:
  // probe one lap of ascending virtual buckets. A root whose own virtual
  // bucket matches the probe is the earliest event overall — events
  // sharing a virtual bucket share a physical bucket, and the root is the
  // bucket minimum.
  for (std::size_t probes = 0; probes < nb_; ++probes, ++v) {
    const std::uint32_t r = bucket_head_[v & mask];
    if (r != kNil && vbucket(nodes_[r].time) == v) {
      cached_min_ = r;
      return r;
    }
  }
  // Full lap without a hit: the next event is more than one calendar year
  // ahead. Direct min over bucket roots; popping it advances now_ and
  // resyncs the probe start.
  std::uint32_t best = kNil;
  for (std::size_t b = 0; b <= mask; ++b) {
    const std::uint32_t r = bucket_head_[b];
    if (r != kNil && (best == kNil || ev_less(r, best))) best = r;
  }
  cached_min_ = best;
  return best;
}

void Simulation::calendar_remove_min(std::uint32_t s) {
  const auto b = static_cast<std::size_t>(vbucket(nodes_[s].time) & (nb_ - 1));
  assert(bucket_head_[b] == s && "min slot must be its bucket's root");
  // Two-pass pairing-heap pop: pair adjacent children left to right, then
  // meld the pairs back together. The pair list is chained through the
  // spare sibling links, so no auxiliary storage and no allocation.
  std::uint32_t first = nodes_[s].child;
  nodes_[s].child = kNil;
  std::uint32_t paired = kNil;
  while (first != kNil) {
    const std::uint32_t a = first;
    const std::uint32_t c = nodes_[a].sibling;
    if (c == kNil) {
      nodes_[a].sibling = paired;
      paired = a;
      break;
    }
    first = nodes_[c].sibling;
    nodes_[a].sibling = kNil;
    nodes_[c].sibling = kNil;
    const std::uint32_t m = meld(a, c);
    nodes_[m].sibling = paired;
    paired = m;
  }
  std::uint32_t root = kNil;
  while (paired != kNil) {
    const std::uint32_t next = nodes_[paired].sibling;
    nodes_[paired].sibling = kNil;
    root = (root == kNil) ? paired : meld(root, paired);
    paired = next;
  }
  // Promote the popped head's chain successor: it shares the head's time
  // with the next-smallest key, but must still be melded against the
  // merged children, which may hold an equal-time head with a smaller key.
  const std::uint32_t h2 = nodes_[s].next;
  if (h2 != kNil) {
    nodes_[h2].tail = nodes_[s].tail;
    root = (root == kNil) ? h2 : meld(root, h2);
  }
  bucket_head_[b] = root;
  --count_;
}

void Simulation::calendar_rebuild(std::size_t min_buckets) {
  // Deterministic width recalibration: sample up to 64 pending times in
  // slot-index order and set the bucket width to 4x the median positive
  // gap between consecutive sorted samples. Equal-time floods yield no
  // positive gap and keep the current width — one fat bucket is exactly
  // the graceful-degradation mode.
  if (count_ >= 2) {
    std::array<double, 64> sample;
    std::size_t ns = 0;
    for (std::uint32_t s = 0; s < watermark_ && ns < sample.size(); ++s) {
      if (nodes_[s].time >= 0.0) sample[ns++] = nodes_[s].time;
    }
    std::sort(sample.begin(), sample.begin() + ns);
    std::array<double, 64> gaps;
    std::size_t ng = 0;
    for (std::size_t i = 1; i < ns; ++i) {
      const double g = sample[i] - sample[i - 1];
      if (g > 0.0) gaps[ng++] = g;
    }
    if (ng > 0) {
      std::sort(gaps.begin(), gaps.begin() + ng);
      // One bucket per distinct timestamp, roughly: narrower widths raise
      // the FIFO-chain hit rate (root timestamps match more inserts) and
      // the probe scan still advances ~one bucket per distinct time.
      const double w = gaps[ng / 2];
      if (w > 1e-300 && w < 1e300) {
        width_ = w;
        inv_width_ = 1.0 / w;
      }
    }
  }
  // Bucket count targets ~1 pending event per bucket; grow-only so a
  // reserve_events() pre-size is never shrunk away.
  std::size_t target = (nb_ == 0) ? kMinBuckets : nb_;
  while (target < count_) target <<= 1;
  while (target < min_buckets) target <<= 1;
  nb_ = std::max(nb_, target);
  bucket_head_.assign(nb_, kNil);
  // Redistribute by walking the slot pool (pending slots have time >= 0)
  // instead of traversing heap links — no stack, no recursion.
  for (std::uint32_t s = 0; s < watermark_; ++s) {
    if (nodes_[s].time < 0.0) continue;
    nodes_[s].child = kNil;
    nodes_[s].sibling = kNil;
    nodes_[s].next = kNil;
    nodes_[s].tail = s;
    bucket_insert(s);
  }
  rebuild_size_ = std::max(count_, kMinRebuild);
  // cached_min_ stays valid: rebuilding moves nodes between buckets but
  // never changes which event is globally earliest.
}

bool Simulation::step() {
  if (count_ == 0) return false;
  const std::uint32_t s = calendar_min();
  // The pairing-heap pop below touches only the link arrays: start
  // pulling the callback's random, often cache-cold slot in now.
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(&slot(s));
#endif
  const SimTime t = nodes_[s].time;
  const std::uint64_t key = nodes_[s].key;
  calendar_remove_min(s);
  cached_min_ = kNil;
  // Mark the slot non-pending *before* running the action: the action may
  // schedule (and thus trigger a rebuild that walks the slot pool), and
  // this event is no longer in the queue. The slot itself stays off the
  // free list until the action returns, so it cannot be reused under us.
  nodes_[s].time = -1.0;
  now_ = t;
#ifndef NDEBUG
  assert((executed_ == 0 || t > last_pop_time_ ||
          (t == last_pop_time_ && key > last_pop_key_)) &&
         "DES pops must be globally ordered on (time, seq)");
  last_pop_time_ = t;
  last_pop_key_ = key;
#else
  (void)key;
#endif
  ++executed_;
  Action& action = slot(s);
  action();  // may schedule further events; slot addresses are stable
  action.reset();
  free_slots_.push_back(s);
  // Population quartered since the last rebuild: recalibrate so sparse
  // leftovers do not rattle around an oversized, mis-widthed calendar.
  if (count_ < rebuild_size_ / 4 && rebuild_size_ > kMinRebuild) {
    calendar_rebuild(0);
  }
  return true;
}

void Simulation::run_until(SimTime deadline) {
  while (count_ != 0 && nodes_[calendar_min()].time <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace harmony::websim

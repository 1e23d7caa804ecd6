// Bucketed timer wheel for dense timer populations.
//
// The event engine's 4-ary heap is exact but pays O(log n) per timer and
// one 80-byte slab slot per pending callback. A client cohort arms one
// timer per client per operation (think time, request timeout, retry
// backoff) — tens of thousands of concurrently pending timers whose
// precision requirement is far coarser than a nanosecond. The wheel
// coalesces them: timers land in fixed-granularity buckets, and the wheel
// keeps exactly *one* engine event armed (for the earliest non-empty
// bucket), firing all of a bucket's entries at the bucket boundary.
//
// Semantics:
//  - A timer due at `due` fires at ceil(due / granularity) * granularity:
//    quantized *up* (never early), by strictly less than one granule.
//  - Entries within a bucket fire in insertion order (deterministic),
//    one on_fire call each, all inside one engine event.
//  - Delays beyond the horizon (slots * granularity) are carried with a
//    lap counter and fire on the correct revolution — arbitrary delays
//    are exact to the same one-granule bound.
//  - Cancellation is the owner's job, by stamp: each entry carries a
//    caller-supplied 32-bit stamp, echoed to the fire callback. Owners
//    that bump their stamp per re-arm drop stale firings with one
//    compare — no search, no tombstone pass.
//
// Not a general replacement for Simulation::schedule: callbacks that need
// exact timestamps or per-event payloads stay on the heap engine.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/inline_task.h"
#include "sim/simulation.h"

namespace mdsim {

class TimerWheel {
 public:
  /// Fired per entry: (index, stamp) as given to arm().
  using FireFn = InlineFunction<void(std::uint32_t, std::uint32_t)>;

  /// `slots` must be a power of two. Default horizon: 128 µs × 65536 =
  /// ~8.6 s, which keeps one lap the common case for client think times,
  /// request timeouts and capped backoff alike.
  TimerWheel(Simulation& sim, FireFn on_fire,
             SimTime granularity = from_micros(128),
             std::uint32_t slots = 1u << 16)
      : sim_(sim),
        on_fire_(std::move(on_fire)),
        granularity_(granularity),
        mask_(slots - 1),
        buckets_(slots) {
    assert(granularity > 0);
    assert(slots != 0 && (slots & (slots - 1)) == 0);
    words_.resize(slots / 64 + 1, 0);
  }

  /// Arm a timer for owner `index` due at absolute time `due` (>= now).
  /// `stamp` is echoed to the fire callback; the wheel never interprets
  /// it. One owner may have any number of live entries — stale ones are
  /// the owner's to ignore.
  void arm(std::uint32_t index, std::uint32_t stamp, SimTime due) {
    assert(due >= sim_.now());
    // current_tick_ is only advanced by service(); catch it up to real
    // time first so lap counts are measured from *now*, not from the last
    // firing (the wheel may have sat idle for many revolutions).
    const std::uint64_t now_tick = sim_.now() / granularity_;
    if (now_tick > current_tick_) current_tick_ = now_tick;
    // Quantize up; a due time exactly on a boundary keeps that boundary.
    std::uint64_t tick = (due + granularity_ - 1) / granularity_;
    if (tick <= current_tick_) tick = current_tick_ + 1;  // never the past
    const std::uint64_t ahead = tick - current_tick_;  // >= 1
    // The bucket `ahead` ticks out is next serviced in lap 0 for any
    // ahead in [1, slots] — hence the -1, lest a due exactly one horizon
    // away fire a full revolution late.
    const std::uint32_t laps =
        static_cast<std::uint32_t>((ahead - 1) / (mask_ + std::uint64_t{1}));
    const std::uint32_t b = static_cast<std::uint32_t>(tick) & mask_;
    buckets_[b].push_back(Entry{index, stamp, laps});
    mark_nonempty(b);
    ++armed_count_;
    if (laps == 0) {
      const SimTime fire_at = static_cast<SimTime>(tick) * granularity_;
      if (!next_fire_.pending() || fire_at < next_fire_at_) rearm(fire_at);
    } else if (!next_fire_.pending()) {
      // Beyond the horizon with nothing armed: wake at this bucket's next
      // occurrence (each revolution's service decrements the lap count, so
      // the wake chain stays alive until it fires).
      schedule_next_from(current_tick_ + 1);
    }
  }

  /// Live entries, including stale ones not yet fired.
  std::uint64_t armed() const { return armed_count_; }
  std::uint64_t fired() const { return fired_count_; }
  SimTime granularity() const { return granularity_; }

 private:
  struct Entry {
    std::uint32_t index;
    std::uint32_t stamp;
    std::uint32_t laps;  // revolutions remaining before this entry fires
  };

  void mark_nonempty(std::uint32_t b) {
    words_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }

  void rearm(SimTime fire_at) {
    next_fire_.cancel();
    next_fire_at_ = fire_at;
    next_fire_ = sim_.schedule_at(fire_at, [this] { service(); });
  }

  void service() {
    const std::uint64_t tick = next_fire_at_ / granularity_;
    current_tick_ = tick;
    const std::uint32_t b = static_cast<std::uint32_t>(tick) & mask_;
    auto& bucket = buckets_[b];
    // Swap out first: firing may arm new entries into this same bucket
    // (for the next revolution, or the next tick mapping elsewhere).
    scratch_.clear();
    scratch_.swap(bucket);
    words_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    for (Entry& e : scratch_) {
      if (e.laps > 0) {
        // Not this revolution: put it back for a later lap.
        bucket.push_back(Entry{e.index, e.stamp, e.laps - 1});
        mark_nonempty(b);
        continue;
      }
      --armed_count_;
      ++fired_count_;
      on_fire_(e.index, e.stamp);
    }
    schedule_next_from(tick + 1);
  }

  /// Arm the engine event for the first non-empty bucket at or after
  /// `from_tick` (bitmap scan; ~1 cache line per 4096 empty buckets).
  void schedule_next_from(std::uint64_t from_tick) {
    if (armed_count_ == 0) return;
    const std::uint32_t slots = mask_ + 1;
    std::uint32_t offset = 0;
    while (offset < slots) {
      const std::uint32_t b =
          static_cast<std::uint32_t>(from_tick + offset) & mask_;
      const std::uint32_t bit = b & 63;
      // One probe sees buckets b .. b+span-1: to the end of this bitmap
      // word, but never past the wheel edge — a wheel smaller than one
      // word must wrap within the word, re-entering at bucket 0, not
      // skip a whole word's worth of (nonexistent) buckets.
      const std::uint32_t span = std::min(64 - bit, slots - b);
      const std::uint64_t word = words_[b >> 6] >> bit;
      if (word != 0) {
        const std::uint32_t hit =
            static_cast<std::uint32_t>(__builtin_ctzll(word));
        if (hit < span) {
          offset += hit;
          rearm(static_cast<SimTime>(from_tick + offset) * granularity_);
          return;
        }
      }
      offset += span;
    }
    // Only lapped entries remain: they live in non-empty buckets, so the
    // scan above must have found one within a revolution.
    assert(false && "armed entries but no non-empty bucket");
  }

  Simulation& sim_;
  FireFn on_fire_;
  SimTime granularity_;
  std::uint32_t mask_;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<std::uint64_t> words_;  // non-empty bucket bitmap
  std::vector<Entry> scratch_;
  std::uint64_t current_tick_ = 0;
  std::uint64_t armed_count_ = 0;
  std::uint64_t fired_count_ = 0;
  EventHandle next_fire_;
  SimTime next_fire_at_ = 0;
};

}  // namespace mdsim

// Conservative synchronous parallel discrete-event simulation.
//
// A ShardedSimulation owns S independent Simulation engines ("shards").
// Shards advance in lockstep windows: each round the coordinator computes
// the global minimum next-event time M and every shard executes its own
// events in [M, M + L) where L is the *lookahead* — the minimum latency of
// any cross-shard interaction (for the cluster simulator: the network's
// base cross-shard link latency). During a window a shard touches only its
// own engine and state; anything bound for another shard is posted into a
// single-producer per-(src,dst) mailbox with an absolute delivery time,
// which the lookahead guarantees is >= the window end. Mailboxes are
// drained by the coordinator at the barrier between windows, in a fixed
// order (destination-major, then source shard ascending, then post order),
// so drained events acquire destination-engine sequence numbers — and
// therefore same-instant tie-break order — that is a pure function of the
// simulation, not of thread scheduling. Shard interiors are sequential
// single-engine execution. Net effect: a run is bit-identical for any
// thread count, including 1. See DESIGN.md §5f for the safety argument.
//
// Threading: one primitive, for_each_shard(fn), runs fn(s) for every
// shard on a persistent pool of worker threads claiming shards off an
// atomic counter (any shard may run on any thread in any order — the
// calls are independent, so this nondeterminism is invisible). The caller
// participates and waits for the round. A lockstep window is one such
// round over Simulation::run_until, after which the coordinator drains
// mailboxes serially; the cluster builder runs its per-shard set-up
// through the same rounds. threads=1 bypasses the pool entirely.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"
#include "sim/simulation.h"

namespace mdsim {

class ShardedSimulation {
 public:
  /// `lookahead` must be positive and no larger than the minimum possible
  /// delivery delay of any cross-shard post (callers wire it from the
  /// network's cross-shard base latency).
  ShardedSimulation(int shards, SimTime lookahead);
  ~ShardedSimulation();
  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Simulation& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const Simulation& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }
  SimTime lookahead() const { return lookahead_; }

  /// Worker threads used by for_each_shard, windows included (clamped to
  /// [1, shard_count]). May be changed between run_until calls; results
  /// are identical for every value — that is the point of the design.
  void set_threads(int threads);
  int threads() const { return threads_; }

  /// Call fn(s) once for every shard s and return when every call has
  /// finished: on the worker pool, the caller included, or serially on
  /// the caller with one thread or one shard. fn(s) may touch only shard
  /// s's engine and state plus what no call of the round writes. If calls
  /// throw, the round still finishes; then the exception of the lowest
  /// such s is rethrown here, and the pool stays usable.
  void for_each_shard(const std::function<void(int)>& fn);

  /// Post `task` for execution in shard `to`'s engine at absolute time
  /// `when`. Must be called from shard `from`'s interior (its window
  /// execution) with when >= the current window end — guaranteed when the
  /// posting layer adds >= lookahead() of latency. The task runs on
  /// whatever thread executes shard `to`, never concurrently with other
  /// work of that shard.
  void post(int from, int to, SimTime when, InlineTask task);

  /// Advance every shard to `until` in lockstep windows (one shard runs
  /// straight through: nothing can post to it). Semantics match
  /// Simulation::run_until per shard: events with time <= until execute,
  /// clocks end at exactly `until`. Returns total events executed.
  std::uint64_t run_until(SimTime until);

  /// Cross-shard messages ferried so far (drained mailbox entries).
  std::uint64_t cross_posts() const { return drained_; }

  std::uint64_t events_executed() const;

 private:
  struct Pending {
    SimTime when;
    InlineTask task;
  };
  /// One single-producer mailbox per (src, dst) pair; only shard `src`'s
  /// window execution appends, only the coordinator (at a barrier) drains.
  struct Mailbox {
    std::vector<Pending> entries;
  };

  void drain_mailboxes();
  void run_window(SimTime bound);
  /// Claim shards off next_shard_ and run the current round's fn on
  /// each, catching what it throws into errors_.
  void claim_shards();
  void worker_loop();

  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<Mailbox> mail_;  // [from * S + to]
  std::uint64_t drained_ = 0;

  // Worker pool (created lazily on the first multi-threaded round).
  int threads_ = 1;
  std::vector<std::thread> pool_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t round_ = 0;      // incremented to release workers
  int workers_active_ = 0;       // workers still in the current round
  bool shutdown_ = false;
  const std::function<void(int)>* round_fn_ = nullptr;  // the round's fn
  std::atomic<int> next_shard_{0};
  /// What fn(s) threw in the current round, per shard; each slot is
  /// written only by the thread that claimed s.
  std::vector<std::exception_ptr> errors_;
  std::atomic<std::uint64_t> window_executed_{0};
};

}  // namespace mdsim

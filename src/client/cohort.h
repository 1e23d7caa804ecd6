// Simulated file-system clients, held in dense cohorts.
//
// Clients are closed-loop: issue a metadata request, wait for the reply,
// think, repeat (the workload generator controls both the op stream and
// the pacing). For the subtree strategies, request routing uses each
// client's location cache (initial ignorance + learned hints, paper
// sections 4.4 and 5.3.3); for the hashed strategies the client computes
// the authority directly, as those systems allow ("clients can locate and
// contact the responsible MDS directly", section 3.1.2).
//
// A ClientCohort holds that protocol (think → issue → reply | timeout →
// backoff → retry, plus hedged reads and GIGA+ routing) once, over one
// array of per-client slots indexed by a dense client index: everything a
// turn touches sits in one slot, and a cohort of one is one allocation.
// Each client has at most one live timer (closed-loop invariant),
// identified by a (kind, generation) stamp so superseded timers are
// dropped with one compare when they fire. Where the timers live follows
// the cohort's size:
//  - A cohort of one arms its timer straight on the engine heap at the
//    exact due time, in one EventHandle that each re-arm cancels. A
//    one-shard ClusterSim builds one such cohort per client.
//  - A larger cohort batches every client's timer through one shared
//    TimerWheel with 1 ms buckets (a timer fires at the next millisecond
//    boundary at or after its due time), so one engine event services a
//    whole bucket. Each shard of a larger ClusterSim is one such cohort.
// Client `id` draws from Rng(seed, 0xc11e47000 + id) in both cases, so a
// client's stream depends on its global id, not on how clients are
// grouped into cohorts. Either way the cohort's ClientStats counters are
// bumped as their events happen, timer-driven or reply-driven alike.
//
// Each client still owns a real network address — a per-client Port
// endpoint attaches to the Network — so MDS-side per-address logic
// (reply routing, update dedup) sees exactly the shape it expects, and
// request ids remain a plain per-client sequence.
//
// In a sharded cluster the cohort also drives cross-shard traffic: a
// catalog of remote targets (global MDS address, inode, owning uid) is
// installed at build time, and each think-turn issues a remote stat with
// probability `remote_fraction`, spoofing the owner's uid. Remote replies
// carry hints and epochs that refer to *another shard's* namespace, so
// both are ignored; remote ops are never traced (the trace collector is
// shard-local).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "client/hedge_policy.h"
#include "client/location_cache.h"
#include "client/retry_policy.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "mds/dirfrag.h"
#include "net/network.h"
#include "sim/timer_wheel.h"
#include "strategy/partition.h"
#include "workload/workload.h"

namespace mdsim {

struct ClientStats {
  std::uint64_t ops_issued = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_ok = 0;       // completed with success (goodput)
  std::uint64_t ops_failed = 0;
  std::uint64_t forwarded_replies = 0;  // replies that took >0 MDS hops
  std::uint64_t retries = 0;            // timeouts (e.g. a failed MDS)
  std::uint64_t stale_replies = 0;      // late/duplicate replies ignored
  std::uint64_t rejected_replies = 0;   // overload Rejected{retry_after}
  std::uint64_t retries_suppressed = 0; // retry budget dry: failed fast
  std::uint64_t giga_redirects = 0;     // stale-bitmap corrections received
  std::uint64_t hedges_fired = 0;       // backup requests sent
  std::uint64_t hedge_wins = 0;         // ops settled by the backup copy
  std::uint64_t wasted_hedges = 0;      // primary won after a hedge fired
  Summary latency_seconds;

  /// Add `o`'s counters and merge its latency Summary into this one.
  ClientStats& operator+=(const ClientStats& o);
};

class ClientCohort {
 public:
  /// A cross-shard stat target: `mds` is a shard-global address.
  struct RemoteTarget {
    NetAddr mds = kInvalidAddr;
    InodeId ino = kInvalidInode;
    std::uint32_t uid = 0;
  };

  ClientCohort(Simulation& sim, Network& net, FsTree& tree,
               Workload& workload, const Partitioner& partition,
               const DirFragRegistry& dirfrag, int count, ClientId first_id,
               int num_mds, std::uint64_t seed);
  ClientCohort(const ClientCohort&) = delete;
  ClientCohort& operator=(const ClientCohort&) = delete;

  /// Attach every client's port and schedule its first operation.
  void start();

  int size() const { return static_cast<int>(clients_.size()); }
  ClientId client_id(int idx) const {
    return first_id_ + static_cast<ClientId>(idx);
  }

  void set_uid(int idx, std::uint32_t uid) {
    clients_[static_cast<std::size_t>(idx)].uid = uid;
  }
  /// Retry policy for every client in the cohort: request timeout,
  /// exponential-backoff knobs, retry budget. Unanswered requests are
  /// re-issued after the timeout (to a random node, bypassing possibly
  /// stale location knowledge) with exponential backoff (base << attempt,
  /// capped) and deterministic jitter in [d/2, d), so a crowd of clients
  /// stranded by a dead node doesn't re-stampede it in lockstep on
  /// recovery. The rng is only consulted on retries: healthy runs draw
  /// nothing.
  void set_retry_policy(const ClientRetryParams& p) {
    retry_ = p;
    for (Slot& c : clients_) c.budget.init(p.budget);
  }

  /// Hedged reads (hedge_policy.h) for every client in the cohort: once
  /// an op class's tail estimator is warm, a read-only first attempt that
  /// has not been answered after the class's ~p99 delay fires one backup
  /// copy (same req_id) at a different node; first reply wins, the loser
  /// is discarded as stale. Off by default: the issue path arms the
  /// ordinary timeout and draws no randomness. The per-client tail
  /// estimators are allocated only when the policy is enabled.
  void set_hedge_policy(const HedgeParams& p) {
    hedge_ = p;
    if (hedge_.enabled) hedge_ests_.resize(clients_.size());
  }

  /// Enable per-request tracing: each issued op carries a pointer to its
  /// client's TraceRecord (closed-loop clients have exactly one op in
  /// flight, so one reusable record each suffices) and completed ops are
  /// ingested by the collector. Null (the default) disables tracing.
  void set_tracer(TraceCollector* tracer);

  /// Install cross-shard targets; each think-turn goes remote with
  /// probability `fraction` (when the catalog is non-empty).
  void set_remote_catalog(std::vector<RemoteTarget> catalog, double fraction);

  /// Aggregate over every client in the cohort.
  const ClientStats& stats() const { return stats_; }
  ClientStats& stats() { return stats_; }
  std::uint64_t remote_ops_issued() const { return remote_issued_; }

 private:
  /// Timer kinds, encoded in the low bits of the timer stamp.
  enum Kind : std::uint32_t { kThink = 0, kTimeout = 1, kRetry = 2, kHedge = 3 };

  struct Port final : NetEndpoint {
    ClientCohort* cohort = nullptr;
    std::uint32_t idx = 0;
    NetAddr addr = kInvalidAddr;
    void on_message(NetAddr from, MessagePtr msg) override {
      cohort->on_reply(idx, from, std::move(msg));
    }
  };

  /// One client's protocol state.
  struct Slot {
    Port port;
    std::uint32_t stamp = 0;       // current valid timer stamp
    std::uint32_t uid = 0;
    std::int32_t attempts = 0;
    std::uint8_t remote = 0;       // this turn targets another shard
    std::uint8_t hedge_out = 0;    // a backup copy is in flight
    std::uint32_t remote_idx = 0;  // catalog index when remote
    MdsId primary = 0;             // where attempt 0 went
    std::uint64_t next_req = 1;
    std::uint64_t inflight = 0;    // req id, 0 = idle
    SimTime issued_at = 0;
    /// Highest partition-map epoch seen in replies. A jump means the
    /// cluster reconfigured (takeover or partition heal): learned
    /// locations may point at superseded authorities, so the cache is
    /// flushed. Starts at 1 — healthy runs never see a jump and never
    /// flush.
    std::uint64_t last_epoch = 1;
    RetryBudget budget;
    Rng rng;  // Rng(seed, 0xc11e47000 + id)
    Operation pending;
    LocationCache locs;
  };

  void on_timer(std::uint32_t idx, std::uint32_t stamp);
  void on_reply(std::uint32_t idx, NetAddr from, MessagePtr msg);
  void schedule_next(std::uint32_t idx);
  void begin_turn(std::uint32_t idx);
  void issue(std::uint32_t idx);
  void on_timeout(std::uint32_t idx);
  void on_retry(std::uint32_t idx);
  void on_hedge(std::uint32_t idx);
  void give_up(std::uint32_t idx);
  MdsId pick_mds(Slot& c, const Operation& op);
  /// Arm this client's one live timer (superseding any previous one).
  void arm(std::uint32_t idx, Kind kind, SimTime due);
  /// Invalidate the live timer without arming a new one.
  void disarm(std::uint32_t idx);

  Simulation& sim_;
  Network& net_;
  FsTree& tree_;
  Workload& workload_;
  const Partitioner& partition_;
  const DirFragRegistry& dirfrag_;
  ClientId first_id_;
  int num_mds_;
  ClientRetryParams retry_;
  TraceCollector* tracer_ = nullptr;

  // Exactly one of these carries the timers: the wheel for a cohort of
  // more than one, the exact engine event for a cohort of one.
  std::optional<TimerWheel> wheel_;
  EventHandle timer_;

  /// Never resized after construction: Port addresses must be stable.
  std::vector<Slot> clients_;
  std::vector<TraceRecord> trace_recs_;  // sized when a tracer is set
  HedgeParams hedge_;
  std::vector<HedgeEstimator> hedge_ests_;  // sized when hedging is on

  std::vector<RemoteTarget> catalog_;
  double remote_fraction_ = 0.0;
  std::uint64_t remote_issued_ = 0;

  ClientStats stats_;
};

}  // namespace mdsim

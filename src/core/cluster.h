// The cluster simulation: `config.shards` cells (core/cell.h), one per
// engine of a ShardedSimulation, each with its share of the clients, run
// while sampling metrics, with the fault-injection API the figures and
// benches drive. Topology is configuration, not a second class:
//
//  - One shard is the single-engine cluster: one cell and a ClientCohort
//    of one per client — exact timers and per-client stats
//    (client/cohort.h) — with no cross-shard fabric. The engine runs it
//    straight through, without lockstep windows.
//  - With S > 1 shards, each shard is a self-contained mini-cluster (its
//    share of num_mds, num_clients and fs.num_users) whose clients form
//    one wheel-timed cohort. Cross-shard traffic is client-driven: each
//    cohort holds a frozen catalog of remote targets (sampled
//    deterministically from the other shards' trees at build time) and
//    issues stats against them with probability shard_remote_fraction;
//    those requests and their replies ride the lookahead-bounded mailbox
//    fabric (net/shard_link.h), which is what makes N-shard runs
//    bit-stable across any thread count.
//
// Set-up runs on the engine's worker pool: each cell and its cohorts are
// a pure function of (config, s, S) and their own engine, so build()
// constructs them in one ShardedSimulation::for_each_shard round and
// collects them in shard order; the remote catalogs (each read-only over
// the finished cells, from a fixed per-destination stream) and each
// engine's start-up (in a fixed order) are one round each. Global MDS
// and client order, seeds and every simulated output are those of a
// serial build at any thread count.
//
// Fault injection, partitions and MDS crash/recovery stay single-shard
// (DESIGN.md §5f): the fault calls throw on a sharded cluster, which
// models healthy scale-out.
#pragma once

#include <memory>
#include <vector>

#include "client/cohort.h"
#include "core/cell.h"
#include "net/shard_link.h"
#include "sim/sharded.h"

namespace mdsim {

struct RunResult {
  SimConfig config;
  double avg_mds_throughput = 0.0;  // ops/sec per MDS (fig 2)
  double hit_rate = 0.0;            // cluster cache hit rate (fig 4)
  double prefix_fraction = 0.0;     // prefix share of cache (fig 3)
  double forward_fraction = 0.0;    // forwarded / client requests
  double mean_latency_ms = 0.0;
  std::uint64_t replies = 0;
  std::uint64_t failures = 0;
};

/// Summarize a run at `now` from the metrics of its cells, in cell order:
/// integer counts are summed across cells before anything is divided.
RunResult summarize(const SimConfig& config,
                    const std::vector<const Metrics*>& cells, SimTime now);

class ClusterSim {
 public:
  /// Throws std::invalid_argument unless 1 <= config.shards <=
  /// min(config.num_mds, kMaxShards): every shard needs an MDS of its own,
  /// and a larger count would grow the cluster past num_mds.
  explicit ClusterSim(SimConfig config);
  ~ClusterSim();
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Run to config.duration (builds lazily on first call).
  void run();
  /// Run to an arbitrary time (tests drive the simulation piecewise).
  void run_until(SimTime t);

  /// Aggregates over every cell at shard 0's clock.
  RunResult result() const;

  /// Crash an MDS (paper sections 2.1.2 and 4.6): the node goes silent
  /// and off the network; nothing else is told. Survivors detect the
  /// death from missed balancer heartbeats and the lowest live id
  /// redistributes the dead node's delegations — replaying its bounded
  /// journal into the heirs when `warm_takeover` (which sets
  /// MdsParams::warm_takeover cluster-wide for this run). Strategies
  /// without heartbeats (hashed / static subtree) have no detector, so
  /// the crash itself is the peer-down notice, handed to every survivor
  /// through the takeover path a missed heartbeat takes.
  /// Every fault call throws as check_fault_target does. Crashing an MDS
  /// that is already down, or the last one up, does nothing but log an
  /// IgnoredFault (FaultLog::ignored_faults).
  void fail_mds(MdsId failed, bool warm_takeover = true);
  /// Restart a crashed MDS: rejoin the network, replay its own bounded
  /// journal against the object store (real disk latency), and resume
  /// serving. Peers mark it back up when its heartbeats resume; the
  /// balancer re-populates it with load over time. On an MDS that is up
  /// it does nothing but log an IgnoredFault.
  void recover_mds(MdsId node);

  /// Gray-failure injection: `node`'s CPU serves every subsequent job
  /// `cpu_mult` times slower and its disks `disk_mult` times slower
  /// (1.0/1.0 restores nominal speed). The node stays up and heartbeating
  /// — detection is the health layer's job, not the fault's.
  void set_fail_slow(MdsId node, double cpu_mult, double disk_mult);

  /// Throws std::invalid_argument unless the fault API can act on `node`:
  /// the cluster has one shard, 0 <= node < num_mds, and a `crash` leaves
  /// another MDS to take over (num_mds > 1).
  void check_fault_target(MdsId node, bool crash = false) const;

  const SimConfig& config() const { return config_; }
  ShardedSimulation& engine() { return engine_; }
  int num_shards() const { return engine_.shard_count(); }
  /// Shard 0's engine: the whole cluster's with one shard.
  Simulation& sim() { return engine_.shard(0); }
  /// Shard s's cell (valid once built: after the first run call).
  Cell& cell(int s = 0) { return *cells_[static_cast<std::size_t>(s)]; }

  // Shard 0's cell parts: the whole cluster's with one shard.
  FaultLog& fault_log() { return cell().fault_log; }
  FsTree& tree() { return cell().tree; }
  Network& network() { return *cell().net; }
  Partitioner& partition() { return *cell().partition; }
  DirFragRegistry& dirfrag() { return *cell().dirfrag; }
  ObjectStore& object_store() { return cell().store; }
  AnchorTable& anchors() { return cell().anchors; }
  LazyHybridManager* lazy() { return cell().lazy.get(); }
  Workload& workload() { return *cell().workload; }
  const NamespaceInfo& namespace_info() const { return cells_[0]->ns_info; }
  Metrics& metrics() { return *cell().metrics; }

  /// MDS i in global order: shard 0's MDSs, then shard 1's, and so on.
  MdsNode& mds(int i) { return *mds_[static_cast<std::size_t>(i)]; }
  int num_mds() const { return config_.num_mds; }
  /// Cohort i in build order: with one shard, client i's own cohort of
  /// one; with more, shard i's cohort of all its clients.
  ClientCohort& client(int i);
  int num_clients() const { return config_.num_clients; }
  /// Every cohort's ClientStats summed in cohort order (latency Summaries
  /// merged), at any shard count. The counters cover the whole run; the
  /// latencies only the time since the warm-up reset (Metrics::reset).
  ClientStats client_stats() const;
  /// Cross-shard stats issued by every cohort.
  std::uint64_t remote_ops() const;

  /// Per-request trace collector; null unless config.trace.enabled. With
  /// one shard it is the cell's own; with more, a merge of every cell's,
  /// rebuilt on each call.
  TraceCollector* tracer();

 private:
  /// Ferries cross-shard messages: source/destination shards are decoded
  /// from the global addresses, so one fabric serves every network.
  struct Fabric final : CrossShardLink {
    ClusterSim* owner = nullptr;
    void deliver(NetAddr global_from, NetAddr global_to, SimTime when,
                 MessagePtr msg) override;
  };

  /// Shard s's cell and cohorts, its clients numbered from
  /// `first_client`.
  struct Shard {
    std::unique_ptr<Cell> cell;
    std::vector<std::unique_ptr<ClientCohort>> cohorts;
  };
  Shard build_shard(int s, int first_client);
  /// Set-up, each step one engine round (ShardedSimulation::
  /// for_each_shard) over the shards: build every cell and its cohorts,
  /// then the remote catalogs, then start every engine.
  void build();
  void build_catalogs();
  void start();

  SimConfig config_;
  ShardedSimulation engine_;
  Fabric fabric_;
  // Built lazily, on first use.
  std::vector<std::unique_ptr<Cell>> cells_;
  /// With one shard, one cohort per client; with more, one per shard.
  std::vector<std::unique_ptr<ClientCohort>> clients_;
  /// Shard s's cohorts are clients_[shard_cohorts_[s], shard_cohorts_[s+1]).
  std::vector<std::size_t> shard_cohorts_;
  std::vector<MdsNode*> mds_;  // every cell's, in global order
  std::unique_ptr<TraceCollector> merged_tracer_;
  bool started_ = false;
};

}  // namespace mdsim

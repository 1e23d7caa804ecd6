// Single-engine cluster: one Cell (namespace, substrates, MDS group,
// workload, metrics) plus one ClientCohort of one client per client —
// exact timers and per-client stats (client/cohort.h) — run while
// sampling metrics, with the fault-injection API the figures and benches
// drive.
#pragma once

#include <memory>
#include <vector>

#include "client/cohort.h"
#include "core/cell.h"

namespace mdsim {

class ClusterSim {
 public:
  explicit ClusterSim(SimConfig config);
  ~ClusterSim();
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Run to config.duration (builds lazily on first call).
  void run();
  /// Run to an arbitrary time (tests drive the simulation piecewise).
  void run_until(SimTime t);

  /// Crash an MDS (paper sections 2.1.2 and 4.6): the node goes silent
  /// and off the network; nothing else is told. Survivors detect the
  /// death from missed balancer heartbeats and the lowest live id
  /// redistributes the dead node's delegations — replaying its bounded
  /// journal into the heirs when `warm_takeover` (which sets
  /// MdsParams::warm_takeover cluster-wide for this run). Strategies
  /// without heartbeats (hashed / static subtree) get the redistribution
  /// applied directly, as they have no detector to find it.
  void fail_mds(MdsId failed, bool warm_takeover = true);
  /// Restart a crashed MDS: rejoin the network, replay its own bounded
  /// journal against the object store (real disk latency), and resume
  /// serving. Peers mark it back up when its heartbeats resume; the
  /// balancer re-populates it with load over time.
  void recover_mds(MdsId node);

  /// Gray-failure injection: `node`'s CPU serves every subsequent job
  /// `cpu_mult` times slower and its disks `disk_mult` times slower
  /// (1.0/1.0 restores nominal speed). The node stays up and heartbeating
  /// — detection is the health layer's job, not the fault's.
  void set_fail_slow(MdsId node, double cpu_mult, double disk_mult);

  /// Failure-lifecycle incident log (crash / detection / takeover /
  /// restart / rejoin timestamps for every injected fault).
  FaultLog& fault_log() { return cell_->fault_log; }

  const SimConfig& config() const { return config_; }
  Simulation& sim() { return sim_; }
  FsTree& tree() { return cell_->tree; }
  Network& network() { return *cell_->net; }
  Partitioner& partition() { return *cell_->partition; }
  DirFragRegistry& dirfrag() { return *cell_->dirfrag; }
  ObjectStore& object_store() { return cell_->store; }
  AnchorTable& anchors() { return cell_->anchors; }
  LazyHybridManager* lazy() { return cell_->lazy.get(); }
  Workload& workload() { return *cell_->workload; }
  const NamespaceInfo& namespace_info() const { return cell_->ns_info; }

  MdsNode& mds(int i) {
    return *cell_->mds_nodes[static_cast<std::size_t>(i)];
  }
  int num_mds() const { return config_.num_mds; }
  /// Client i, as its own cohort of one.
  ClientCohort& client(int i) {
    return *clients_[static_cast<std::size_t>(i)];
  }
  int num_clients() const { return static_cast<int>(clients_.size()); }

  Metrics& metrics() { return *cell_->metrics; }
  /// Per-request trace collector; null unless config.trace.enabled.
  TraceCollector* tracer() { return cell_->tracer.get(); }

 private:
  void build();

  SimConfig config_;
  Simulation sim_;
  std::unique_ptr<Cell> cell_;  // built lazily, on first use
  std::vector<std::unique_ptr<ClientCohort>> clients_;
  bool started_ = false;
};

}  // namespace mdsim

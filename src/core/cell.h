// One engine's mini-cluster: the ground-truth namespace, the shared
// substrates (object store, anchors, network, partition, dirfrag), the MDS
// group, the workload, the tracer and the metrics. A one-shard ClusterSim
// is one cell plus a ClientCohort of one per client (exact timers); each
// shard of a larger one is one cell plus one ClientCohort of all its
// clients (wheel timers). Topology is configuration: the same constructor
// builds the whole cluster (one shard) or shard `s` of `shards`.
//
// Clients stay the caller's. It builds them against the cell's network,
// tree, workload, partition and dirfrag, then hands their stats to
// measure().
#pragma once

#include <memory>
#include <vector>

#include "client/cohort.h"
#include "common/fault_log.h"
#include "common/trace.h"
#include "core/config.h"
#include "core/metrics.h"
#include "mds/mds_node.h"
#include "net/shard_link.h"
#include "workload/workload.h"

namespace mdsim {

/// Shard s's share of `total` split over `shards`: even, with the
/// remainder spread over the first shards, and at least one per shard
/// once split. One shard gets `total` itself.
int shard_share(int total, int shards, int s);

struct Cell {
  /// Build shard `s` of `shards` of `config` on `sim`: its share of the
  /// users and MDSs, with seeds decorrelated per shard (shard 0 keeps the
  /// configured seeds). A non-null `link` carries the network's
  /// cross-shard sends.
  Cell(Simulation& sim, const SimConfig& config, int s = 0, int shards = 1,
       CrossShardLink* link = nullptr);
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// Build the metrics over the MDS group and `clients` (owned by the
  /// caller). Call once, after the clients exist.
  void measure(std::vector<ClientStats*> clients);
  /// Open the measurement window at the warm-up boundary: re-base the
  /// metrics (client latencies and traces included) and the network's
  /// message counters.
  void reset_window();

  int num_mds() const { return ctx->num_mds; }

  Simulation& sim;
  NamespaceParams fs;  // this cell's share of the namespace
  FsTree tree;
  NamespaceInfo ns_info;
  ObjectStore store;
  AnchorTable anchors;
  FaultLog fault_log;
  std::unique_ptr<Network> net;
  std::unique_ptr<Partitioner> partition;
  std::unique_ptr<DirFragRegistry> dirfrag;
  std::unique_ptr<LazyHybridManager> lazy;
  std::unique_ptr<ClusterContext> ctx;
  std::vector<std::unique_ptr<MdsNode>> mds_nodes;
  std::unique_ptr<Workload> workload;
  /// Per-request trace collector; null unless config.trace.enabled.
  std::unique_ptr<TraceCollector> tracer;
  std::unique_ptr<Metrics> metrics;
};

}  // namespace mdsim

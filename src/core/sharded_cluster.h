// Sharded cluster simulation: the parallel counterpart of ClusterSim.
//
// A shard is one Cell (core/cell.h) plus a client cohort, bound to one
// engine of a ShardedSimulation. All of the intra-cluster protocol
// (forwarding, replication, migration, heartbeats, journaling) runs
// unmodified *within* a shard, single-threaded. Cross-shard traffic is
// client-driven: each cohort holds a frozen catalog of remote targets
// (sampled deterministically from the other shards' trees at build time)
// and issues stats against them with a configurable probability; those
// requests and their replies ride the lookahead-bounded mailbox fabric
// (net/shard_link.h), which is what makes N-shard runs bit-stable across
// any thread count.
//
// Deliberate non-goals, documented in DESIGN.md §5f: fault injection,
// partitions and MDS crash/recovery stay intra-shard concepts; sharded
// runs model healthy scale-out.
#pragma once

#include <memory>
#include <vector>

#include "client/cohort.h"
#include "core/cell.h"
#include "core/experiment.h"
#include "net/shard_link.h"
#include "sim/sharded.h"

namespace mdsim {

class ShardedClusterSim {
 public:
  explicit ShardedClusterSim(SimConfig config);
  ~ShardedClusterSim();
  ShardedClusterSim(const ShardedClusterSim&) = delete;
  ShardedClusterSim& operator=(const ShardedClusterSim&) = delete;

  /// Build, run to config.duration, aggregate. Idempotent.
  void run();

  /// Aggregates over every shard, shaped exactly like a single-cluster
  /// run's summary. Valid after run().
  const RunResult& result() const { return result_; }

  ShardedSimulation& engine() { return engine_; }
  int num_shards() const { return engine_.shard_count(); }
  std::uint64_t remote_ops() const;
  /// Merged per-request trace aggregation (null when tracing is off).
  const TraceCollector* tracer() const { return merged_tracer_.get(); }

 private:
  struct Shard {
    std::unique_ptr<Cell> cell;
    std::unique_ptr<ClientCohort> cohort;
  };

  /// Ferries cross-shard messages: source/destination shards are decoded
  /// from the global addresses, so one fabric serves every network.
  struct Fabric final : CrossShardLink {
    ShardedClusterSim* owner = nullptr;
    void deliver(NetAddr global_from, NetAddr global_to, SimTime when,
                 MessagePtr msg) override;
  };

  void build();
  void build_catalogs();
  void aggregate();

  SimConfig config_;
  ShardedSimulation engine_;
  Fabric fabric_;
  std::vector<Shard> shards_;
  std::unique_ptr<TraceCollector> merged_tracer_;
  RunResult result_;
  bool built_ = false;
  bool ran_ = false;
};

}  // namespace mdsim

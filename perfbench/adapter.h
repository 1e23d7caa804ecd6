// The benchmark's only calls into mdsim's two cluster types. A config
// with shards == 1 runs on ClusterSim, any other on ShardedClusterSim.
// When the two types merge into one, this adapter is the one file of the
// benchmark to re-point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/sharded_cluster.h"

namespace perfbench {

/// Every simulated output the correctness gate compares. All of it is a
/// pure function of the config and seed.
struct SimOutputs {
  mdsim::RunResult result;  // `config` is not compared
  std::uint64_t events = 0;
  std::uint64_t cross_posts = 0;
};

/// Exact comparison: doubles must match bit for bit.
bool same_outputs(const SimOutputs& a, const SimOutputs& b);
std::string describe(const SimOutputs& o);

/// Host wall and CPU seconds.
struct HostTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
/// CPU time of every thread of the process, or of the calling thread only.
HostTime host_now(bool thread_cpu = false);
HostTime operator-(const HostTime& a, const HostTime& b);

/// Whole-run counters of the simulated cluster's modules. Only the
/// single-engine cluster exposes them; ShardedClusterSim keeps its MDS
/// nodes, networks and cohorts private.
struct DetailCounters {
  std::uint64_t mds_replies = 0;  // replies sent by every MDS, whole run
  std::uint64_t migrations = 0;
  std::uint64_t items_migrated = 0;
  std::uint64_t replica_grants = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t journaled = 0;
  std::uint64_t giga_redirects = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t client_ops = 0;  // completed client ops, whole run
  std::uint64_t client_retries = 0;
  std::uint64_t client_stale = 0;
  std::uint64_t net_msgs = 0;  // messages sent after warmup
};

/// One simulated cluster, built from one config.
class BenchCluster {
 public:
  explicit BenchCluster(const mdsim::SimConfig& cfg);
  ~BenchCluster();
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  /// True for ClusterSim: one engine, driven on the calling thread, with
  /// set-up in build(). ShardedClusterSim builds inside run(), so there
  /// run() includes set-up.
  bool single_engine() const { return single_ != nullptr; }
  /// Build the cluster and start its clients (single engine; no-op for
  /// the sharded cluster, which builds inside run()).
  void build();
  /// Single engine only: advance to simulated time `t`.
  void run_until(mdsim::SimTime t);
  /// Run to the config's duration.
  void run();

  /// Valid after run().
  SimOutputs outputs();
  /// Merged per-request trace collector; null unless config.trace.enabled.
  const mdsim::TraceCollector* tracer();
  /// Events executed so far by each engine (one entry per shard).
  std::vector<std::uint64_t> shard_events();
  /// Events waiting in each engine's queue right now.
  std::vector<std::size_t> shard_pending();
  /// InlineTask heap fallbacks summed over engines.
  std::uint64_t task_heap_fallbacks();
  std::optional<DetailCounters> detail();
  /// Node count of the cluster's namespace now (creates add to it);
  /// single engine only, as ShardedClusterSim keeps its trees private.
  std::optional<std::size_t> tree_nodes();
  /// MetadataCache::check_invariants() on every MDS: empty when every
  /// cache is sound or when the cluster type does not expose its MDSs.
  std::string audit();

 private:
  mdsim::SimConfig cfg_;
  std::unique_ptr<mdsim::ClusterSim> single_;
  std::unique_ptr<mdsim::ShardedClusterSim> sharded_;
};

/// The namespace each engine of `cfg` generates at set-up. Sharded, each
/// shard gets its share of the users and its own seed, derived as
/// ShardedClusterSim::build_shard derives them.
std::vector<mdsim::NamespaceParams> engine_namespaces(
    const mdsim::SimConfig& cfg);

/// Host time to take `cfg` to a cluster ready to run: namespace, MDS and
/// client build, cross-shard catalogs. Measured as a zero-horizon run of
/// the same config, which works the same on both cluster types. CPU time
/// is the calling thread's on one engine, as in a run.
HostTime time_setup(mdsim::SimConfig cfg);

}  // namespace perfbench

#include "adapter.h"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <sstream>

namespace perfbench {

using namespace mdsim;

bool same_outputs(const SimOutputs& a, const SimOutputs& b) {
  const RunResult& x = a.result;
  const RunResult& y = b.result;
  auto same = [](double p, double q) {
    return std::memcmp(&p, &q, sizeof p) == 0;
  };
  return same(x.avg_mds_throughput, y.avg_mds_throughput) &&
         same(x.hit_rate, y.hit_rate) &&
         same(x.prefix_fraction, y.prefix_fraction) &&
         same(x.forward_fraction, y.forward_fraction) &&
         same(x.mean_latency_ms, y.mean_latency_ms) &&
         x.replies == y.replies && x.failures == y.failures &&
         a.events == b.events && a.cross_posts == b.cross_posts;
}

std::string describe(const SimOutputs& o) {
  std::ostringstream s;
  s.precision(17);
  s << "tput=" << o.result.avg_mds_throughput << " hit=" << o.result.hit_rate
    << " prefix=" << o.result.prefix_fraction
    << " fwd=" << o.result.forward_fraction
    << " lat_ms=" << o.result.mean_latency_ms
    << " replies=" << o.result.replies << " failures=" << o.result.failures
    << " events=" << o.events << " cross_posts=" << o.cross_posts;
  return s.str();
}

HostTime host_now(bool thread_cpu) {
  timespec wall{};
  timespec cpu{};
  clock_gettime(CLOCK_MONOTONIC, &wall);
  clock_gettime(thread_cpu ? CLOCK_THREAD_CPUTIME_ID : CLOCK_PROCESS_CPUTIME_ID,
                &cpu);
  return {static_cast<double>(wall.tv_sec) + 1e-9 * wall.tv_nsec,
          static_cast<double>(cpu.tv_sec) + 1e-9 * cpu.tv_nsec};
}

HostTime operator-(const HostTime& a, const HostTime& b) {
  return {a.wall_s - b.wall_s, a.cpu_s - b.cpu_s};
}

BenchCluster::BenchCluster(const SimConfig& cfg) : cfg_(cfg) {
  if (cfg_.shards > 1) {
    sharded_ = std::make_unique<ShardedClusterSim>(cfg_);
  } else {
    single_ = std::make_unique<ClusterSim>(cfg_);
  }
}

BenchCluster::~BenchCluster() = default;

void BenchCluster::build() {
  if (single_) single_->run_until(0);
}

void BenchCluster::run_until(SimTime t) { single_->run_until(t); }

void BenchCluster::run() {
  if (single_) {
    single_->run();
  } else {
    sharded_->run();
  }
}

SimOutputs BenchCluster::outputs() {
  SimOutputs o;
  if (sharded_) {
    o.result = sharded_->result();
    o.events = sharded_->engine().events_executed();
    o.cross_posts = sharded_->engine().cross_posts();
    return o;
  }
  // The same summary run_one() takes of a finished ClusterSim.
  RunResult& r = o.result;
  r.config = cfg_;
  Metrics& m = single_->metrics();
  r.avg_mds_throughput = m.avg_mds_throughput(single_->sim().now());
  r.hit_rate = m.cluster_hit_rate();
  r.prefix_fraction = m.mean_prefix_fraction();
  r.forward_fraction = m.overall_forward_fraction();
  r.mean_latency_ms = m.client_latency().mean() * 1e3;
  r.replies = m.total_replies();
  r.failures = m.total_failures();
  o.events = single_->sim().events_executed();
  return o;
}

const TraceCollector* BenchCluster::tracer() {
  return single_ ? single_->tracer() : sharded_->tracer();
}

std::vector<std::uint64_t> BenchCluster::shard_events() {
  if (single_) return {single_->sim().events_executed()};
  std::vector<std::uint64_t> out;
  for (int i = 0; i < sharded_->num_shards(); ++i) {
    out.push_back(sharded_->engine().shard(i).events_executed());
  }
  return out;
}

std::vector<std::size_t> BenchCluster::shard_pending() {
  if (single_) return {single_->sim().events_pending()};
  std::vector<std::size_t> out;
  for (int i = 0; i < sharded_->num_shards(); ++i) {
    out.push_back(sharded_->engine().shard(i).events_pending());
  }
  return out;
}

std::uint64_t BenchCluster::task_heap_fallbacks() {
  if (single_) return single_->sim().counters().task_heap_fallbacks;
  std::uint64_t n = 0;
  for (int i = 0; i < sharded_->num_shards(); ++i) {
    n += sharded_->engine().shard(i).counters().task_heap_fallbacks;
  }
  return n;
}

std::optional<DetailCounters> BenchCluster::detail() {
  if (!single_) return std::nullopt;
  DetailCounters d;
  for (int i = 0; i < single_->num_mds(); ++i) {
    MdsNode& node = single_->mds(i);
    const MdsStats& s = node.stats();
    d.mds_replies += s.replies_sent;
    d.migrations += s.migrations_out;
    d.items_migrated += s.items_migrated_out;
    d.replica_grants += s.replica_grants;
    d.invalidations += s.invalidations_sent;
    d.journaled += s.updates_journaled;
    d.giga_redirects += s.giga_redirects_sent;
    d.cache_hits += node.cache().stats().hits;
    d.cache_misses += node.cache().stats().misses;
    d.cache_evictions += node.cache().stats().evictions;
  }
  for (int i = 0; i < single_->num_clients(); ++i) {
    const ClientStats& s = single_->client(i).stats();
    d.client_ops += s.ops_completed;
    d.client_retries += s.retries;
    d.client_stale += s.stale_replies;
  }
  d.net_msgs = single_->network().total_messages();
  return d;
}

std::string BenchCluster::audit() {
  if (!single_) return {};
  for (int i = 0; i < single_->num_mds(); ++i) {
    const std::string err = single_->mds(i).cache().check_invariants();
    if (!err.empty()) return "mds" + std::to_string(i) + ": " + err;
  }
  return {};
}

std::optional<std::size_t> BenchCluster::tree_nodes() {
  if (!single_) return std::nullopt;
  return single_->tree().node_count();
}

std::vector<NamespaceParams> engine_namespaces(const SimConfig& cfg) {
  if (cfg.shards <= 1) return {cfg.fs};
  // sharded_cluster.cc's split() and shard_seed(), which it keeps private.
  const int shards = std::min(cfg.shards, kMaxShards);
  std::vector<NamespaceParams> out;
  for (int s = 0; s < shards; ++s) {
    NamespaceParams fs = cfg.fs;
    const int users = cfg.fs.num_users / shards +
                      (s < cfg.fs.num_users % shards ? 1 : 0);
    fs.num_users = std::max(1, users);
    fs.seed = cfg.fs.seed +
              static_cast<std::uint64_t>(s) * 0x9e3779b97f4a7c15ULL;
    out.push_back(fs);
  }
  return out;
}

HostTime time_setup(SimConfig cfg) {
  cfg.duration = 0;
  cfg.warmup = 0;
  const bool one = cfg.shards <= 1;  // as the constructor chooses
  const HostTime t0 = host_now(one);
  BenchCluster cluster(cfg);
  cluster.build();
  cluster.run();
  return host_now(one) - t0;
}

}  // namespace perfbench

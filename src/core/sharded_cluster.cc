#include "core/sharded_cluster.h"

#include <algorithm>
#include <cassert>

namespace mdsim {

void ShardedClusterSim::Fabric::deliver(NetAddr global_from,
                                        NetAddr global_to, SimTime when,
                                        MessagePtr msg) {
  const int from = shard_of_addr(global_from);
  const int to = shard_of_addr(global_to);
  Network* net = owner->shards_[static_cast<std::size_t>(to)].cell->net.get();
  owner->engine_.post(
      from, to, when,
      InlineTask([net, global_from, global_to,
                  m = std::move(msg)]() mutable {
        net->deliver_remote(global_from, global_to, std::move(m));
      }));
}

ShardedClusterSim::ShardedClusterSim(SimConfig config)
    : config_(std::move(config)),
      engine_(std::min(config_.shards, kMaxShards),
              config_.net.cross_base_latency) {
  assert(config_.shards >= 1 && config_.shards <= kMaxShards);
  assert(config_.net.cross_base_latency > 0 &&
         "cross-shard lookahead requires a positive base latency");
  fabric_.owner = this;
}

ShardedClusterSim::~ShardedClusterSim() = default;

void ShardedClusterSim::build_catalogs() {
  const int S = engine_.shard_count();
  if (S < 2 || config_.shard_remote_fraction <= 0.0 ||
      config_.shard_catalog_size <= 0) {
    return;
  }
  for (int s = 0; s < S; ++s) {
    // One dedicated stream per destination cohort; iteration order over
    // source shards is fixed, so the catalog is a pure function of the
    // configuration.
    Rng rng(config_.seed, 0xca7a1000ULL + static_cast<std::uint64_t>(s));
    std::vector<ClientCohort::RemoteTarget> catalog;
    for (int t = 0; t < S; ++t) {
      if (t == s) continue;
      const Cell& other = *shards_[static_cast<std::size_t>(t)].cell;
      const auto& files = other.tree.files();
      if (files.empty()) continue;
      for (int k = 0; k < config_.shard_catalog_size; ++k) {
        FsNode* node = files[rng.uniform(files.size())];
        MdsId authority = other.partition->authority_of(node);
        if (authority == kInvalidMds) authority = 0;
        catalog.push_back(ClientCohort::RemoteTarget{
            shard_global_addr(t, authority), node->ino(),
            node->inode().perms.uid});
      }
    }
    shards_[static_cast<std::size_t>(s)].cohort->set_remote_catalog(
        std::move(catalog), config_.shard_remote_fraction);
  }
}

void ShardedClusterSim::build() {
  if (built_) return;
  built_ = true;
  const int S = engine_.shard_count();
  shards_.reserve(static_cast<std::size_t>(S));
  int first_client = 0;
  for (int s = 0; s < S; ++s) {
    Simulation& sim = engine_.shard(s);
    auto cell = std::make_unique<Cell>(sim, config_, s, S, &fabric_);
    const int clients = shard_share(config_.num_clients, S, s);
    auto cohort = std::make_unique<ClientCohort>(
        sim, *cell->net, cell->tree, *cell->workload, *cell->partition,
        *cell->dirfrag, clients, static_cast<ClientId>(first_client),
        cell->num_mds(), config_.seed);
    // Align each client's uid with the home the workload gives it: the
    // workload maps global client id c to homes_[c % num_users] (per-shard
    // num_users), and user u's home is owned by uid 100 + u.
    const int users = cell->fs.num_users;
    for (int c = 0; users > 0 && c < clients; ++c) {
      cohort->set_uid(
          c, 100 + static_cast<std::uint32_t>((first_client + c) % users));
    }
    cohort->set_retry_policy(config_.client_retry);
    cohort->set_hedge_policy(config_.hedge);
    cohort->set_tracer(cell->tracer.get());
    cell->measure({&cohort->stats()});
    first_client += clients;
    shards_.push_back(Shard{std::move(cell), std::move(cohort)});
  }
  build_catalogs();
}

void ShardedClusterSim::aggregate() {
  std::vector<const Metrics*> cells;
  for (const Shard& sh : shards_) cells.push_back(sh.cell->metrics.get());
  result_ = summarize(config_, cells, engine_.shard(0).now());

  if (config_.trace.enabled) {
    merged_tracer_ =
        std::make_unique<TraceCollector>(config_.trace.slowest_n);
    for (const Shard& sh : shards_) merged_tracer_->merge(*sh.cell->tracer);
  }
}

void ShardedClusterSim::run() {
  if (ran_) return;
  ran_ = true;
  build();
  for (Shard& sh : shards_) {
    sh.cohort->start();
    Cell* cell = sh.cell.get();
    if (config_.warmup > 0) {
      cell->sim.schedule(config_.warmup, [cell]() { cell->reset_window(); });
    } else {
      cell->reset_window();  // degenerate: measure from t=0
    }
  }
  engine_.set_threads(config_.threads);
  engine_.run_until(config_.duration);
  aggregate();
}

std::uint64_t ShardedClusterSim::remote_ops() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.cohort->remote_ops_issued();
  return n;
}

}  // namespace mdsim

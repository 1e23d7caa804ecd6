#include "core/cluster.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace mdsim {

namespace {

/// config.shards, once checked: each shard takes at least one MDS, so a
/// count above num_mds would silently grow the cluster.
int checked_shards(const SimConfig& config) {
  const int most = std::min(config.num_mds, kMaxShards);
  if (config.shards < 1 || config.shards > most) {
    throw std::invalid_argument(
        "shards=" + std::to_string(config.shards) + " is outside [1, " +
        std::to_string(most) + "] for num_mds=" +
        std::to_string(config.num_mds));
  }
  return config.shards;
}

}  // namespace

RunResult summarize(const SimConfig& config,
                    const std::vector<const Metrics*>& cells, SimTime now) {
  Metrics::Totals t;
  for (const Metrics* m : cells) m->add_totals(t);
  RunResult r;
  r.config = config;
  r.avg_mds_throughput = t.avg_mds_throughput(now);
  r.hit_rate = t.hit_rate();
  r.prefix_fraction = t.prefix_fraction();
  r.forward_fraction = t.forward_fraction();
  r.mean_latency_ms = t.latency.mean() * 1e3;
  r.replies = t.replies;
  r.failures = t.failures;
  return r;
}

void ClusterSim::Fabric::deliver(NetAddr global_from, NetAddr global_to,
                                 SimTime when, MessagePtr msg) {
  const int from = shard_of_addr(global_from);
  const int to = shard_of_addr(global_to);
  Network* net = owner->cell(to).net.get();
  owner->engine_.post(
      from, to, when,
      InlineTask([net, global_from, global_to,
                  m = std::move(msg)]() mutable {
        net->deliver_remote(global_from, global_to, std::move(m));
      }));
}

ClusterSim::ClusterSim(SimConfig config)
    : config_(std::move(config)),
      engine_(checked_shards(config_), config_.net.cross_base_latency) {
  engine_.set_threads(config_.threads);
  fabric_.owner = this;
}

ClusterSim::~ClusterSim() = default;

ClusterSim::Shard ClusterSim::build_shard(int s, int first_client) {
  const int S = num_shards();
  Simulation& sim = engine_.shard(s);
  Shard out;
  out.cell = std::make_unique<Cell>(sim, config_, s, S,
                                    S > 1 ? &fabric_ : nullptr);
  Cell& cell = *out.cell;
  // One shard: a cohort of one per client (exact timers, per-client
  // stats). More: one wheel-timed cohort of all the shard's clients.
  const int clients = shard_share(config_.num_clients, S, s);
  const int cohort_size = S == 1 ? 1 : clients;
  std::vector<ClientStats*> stats;
  for (int first = first_client; first < first_client + clients;
       first += cohort_size) {
    auto cohort = std::make_unique<ClientCohort>(
        sim, *cell.net, cell.tree, *cell.workload, *cell.partition,
        *cell.dirfrag, cohort_size, static_cast<ClientId>(first),
        cell.num_mds(), config_.seed);
    // Align each client's uid with the home the workload gives it: the
    // workload maps global client id c to homes_[c % num_users] (this
    // cell's num_users), and user u's home is owned by uid 100 + u.
    const int users = cell.fs.num_users;
    for (int c = 0; users > 0 && c < cohort_size; ++c) {
      cohort->set_uid(c,
                      100 + static_cast<std::uint32_t>((first + c) % users));
    }
    cohort->set_retry_policy(config_.client_retry);
    cohort->set_hedge_policy(config_.hedge);
    cohort->set_tracer(cell.tracer.get());
    stats.push_back(&cohort->stats());
    out.cohorts.push_back(std::move(cohort));
  }
  cell.measure(std::move(stats));
  return out;
}

void ClusterSim::build() {
  if (!cells_.empty()) return;
  const int S = num_shards();
  // Each shard is a function of (config, s, S) and its own engine alone,
  // so the shards build concurrently; only the first client id crosses
  // shards, and it is a prefix sum fixed up front.
  std::vector<int> first_client(static_cast<std::size_t>(S), 0);
  for (int s = 1; s < S; ++s) {
    first_client[static_cast<std::size_t>(s)] =
        first_client[static_cast<std::size_t>(s - 1)] +
        shard_share(config_.num_clients, S, s - 1);
  }
  std::vector<Shard> built(static_cast<std::size_t>(S));
  engine_.for_each_shard([&](int s) {
    built[static_cast<std::size_t>(s)] =
        build_shard(s, first_client[static_cast<std::size_t>(s)]);
  });
  // Collect in shard order, so global MDS and client order are the
  // serial build's.
  shard_cohorts_.push_back(0);
  for (Shard& shard : built) {
    for (auto& node : shard.cell->mds_nodes) mds_.push_back(node.get());
    for (auto& cohort : shard.cohorts) clients_.push_back(std::move(cohort));
    shard_cohorts_.push_back(clients_.size());
    cells_.push_back(std::move(shard.cell));
  }
  if (S > 1) build_catalogs();
}

void ClusterSim::build_catalogs() {
  const int S = num_shards();
  if (config_.shard_remote_fraction <= 0.0 ||
      config_.shard_catalog_size <= 0) {
    return;
  }
  // Per destination shard s: it reads the other cells' trees and
  // partitions, which nothing writes during the round, and writes only
  // its own cohort.
  engine_.for_each_shard([this, S](int s) {
    // One dedicated stream per destination cohort; iteration order over
    // source shards is fixed, so the catalog is a pure function of the
    // configuration.
    Rng rng(config_.seed, 0xca7a1000ULL + static_cast<std::uint64_t>(s));
    std::vector<ClientCohort::RemoteTarget> catalog;
    for (int t = 0; t < S; ++t) {
      if (t == s) continue;
      const Cell& other = cell(t);
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
    clients_[static_cast<std::size_t>(s)]->set_remote_catalog(
        std::move(catalog), config_.shard_remote_fraction);
  });
}

void ClusterSim::start() {
  // Per engine, in a fixed order — its clients, then the sampler, then
  // the warm-up reset — so each engine's sequence numbers, and with them
  // its same-instant tie-breaks, do not depend on the thread count.
  engine_.for_each_shard([this](int s) {
    const auto i = static_cast<std::size_t>(s);
    for (std::size_t c = shard_cohorts_[i]; c < shard_cohorts_[i + 1]; ++c) {
      clients_[c]->start();
    }
    Cell* cell = cells_[i].get();
    cell->sim.every(config_.sample_period, config_.sample_period,
                    [cell]() {
                      cell->metrics->sample(cell->sim.now());
                      return true;
                    });
    if (config_.warmup > 0) {
      cell->sim.schedule(config_.warmup, [cell]() { cell->reset_window(); });
    }
  });
}

void ClusterSim::run_until(SimTime t) {
  build();
  if (!started_) {
    started_ = true;
    start();
  }
  engine_.run_until(t);
}

void ClusterSim::run() { run_until(config_.duration); }

RunResult ClusterSim::result() const {
  std::vector<const Metrics*> metrics;
  for (const auto& cell : cells_) metrics.push_back(cell->metrics.get());
  return summarize(config_, metrics, engine_.shard(0).now());
}

ClientCohort& ClusterSim::client(int i) {
  assert(i >= 0 && static_cast<std::size_t>(i) < clients_.size());
  return *clients_[static_cast<std::size_t>(i)];
}

ClientStats ClusterSim::client_stats() const {
  ClientStats total;
  for (const auto& c : clients_) total += c->stats();
  return total;
}

std::uint64_t ClusterSim::remote_ops() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) n += c->remote_ops_issued();
  return n;
}

TraceCollector* ClusterSim::tracer() {
  if (num_shards() == 1) return cell().tracer.get();
  if (!config_.trace.enabled) return nullptr;
  merged_tracer_ = std::make_unique<TraceCollector>(config_.trace.slowest_n);
  for (const auto& c : cells_) merged_tracer_->merge(*c->tracer);
  return merged_tracer_.get();
}

void ClusterSim::check_fault_target(MdsId node, bool crash) const {
  if (num_shards() != 1) {
    throw std::invalid_argument("fault injection needs a single-shard "
                                "cluster, not " +
                                std::to_string(num_shards()) + " shards");
  }
  if (node < 0 || node >= config_.num_mds) {
    throw std::invalid_argument("MDS " + std::to_string(node) +
                                " is outside [0, " +
                                std::to_string(config_.num_mds) + ")");
  }
  if (crash && config_.num_mds == 1) {
    throw std::invalid_argument(
        "crashing the only MDS leaves no survivor to take over");
  }
}

void ClusterSim::fail_mds(MdsId failed, bool warm_takeover) {
  check_fault_target(failed, /*crash=*/true);
  build();
  // Nothing to crash, or no survivor to take over: a crash here would
  // open an incident no peer ever detects.
  if (mds(failed).failed()) {
    fault_log().note_ignored(failed, IgnoredFault::Reason::kCrashDown,
                             sim().now());
    return;
  }
  const auto live = std::count_if(
      mds_.begin(), mds_.end(), [](const MdsNode* n) { return !n->failed(); });
  if (live == 1) {
    fault_log().note_ignored(failed, IgnoredFault::Reason::kCrashLastLive,
                             sim().now());
    return;
  }
  cell().ctx->params.warm_takeover = warm_takeover;
  mds(failed).set_failed(true);
  network().set_down(failed, true);
  fault_log().note_crash(failed, sim().now());

  // Strategies that exchange balancer heartbeats detect the crash
  // themselves: the node simply goes silent, survivors declare it dead
  // after heartbeat_miss_threshold missed periods, and the lowest live id
  // performs the takeover (recovery.cc). Nothing more to do here — the
  // unavailability window between crash and takeover is the measurement.
  if (traits_for(config_.strategy).load_balancing) return;

  // No heartbeats (hashed / static strategies): an external monitor
  // tells every survivor, in id order, through the same entry point a
  // missed heartbeat uses. The lowest survivor records the detection and
  // coordinates the takeover.
  for (MdsId i = 0; i < config_.num_mds; ++i) {
    if (i != failed && !mds(i).failed()) mds(i).on_peer_detected_down(failed);
  }
}

void ClusterSim::set_fail_slow(MdsId node, double cpu_mult, double disk_mult) {
  check_fault_target(node);
  build();
  mds(node).set_fail_slow(cpu_mult, disk_mult);
  if (cpu_mult != 1.0 || disk_mult != 1.0) {
    fault_log().note_fail_slow(node, sim().now());
  } else {
    fault_log().note_fail_slow_cleared(node, sim().now());
  }
}

void ClusterSim::recover_mds(MdsId node) {
  check_fault_target(node);
  build();
  MdsNode& n = mds(node);
  // A serving MDS has nothing to recover; restarting it would wipe its
  // cache.
  if (!n.failed()) {
    fault_log().note_ignored(node, IgnoredFault::Reason::kRestartLive,
                             sim().now());
    return;
  }
  n.set_failed(false);
  network().set_down(node, false);
  fault_log().note_restart(node, sim().now());
  // Journal replay + cache warm-up with real disk latency; serving
  // resumes immediately, recovering() clears when the replay lands.
  n.restart();

  if (traits_for(config_.strategy).load_balancing) {
    return;  // peers mark it up when its heartbeats resume
  }
  // No heartbeats: the monitor tells every survivor the node is back, and
  // tells the node which peers are still down.
  for (MdsId i = 0; i < config_.num_mds; ++i) {
    if (i == node) continue;
    if (mds(i).failed()) {
      n.on_peer_detected_down(i);
    } else {
      mds(i).on_peer_back(node);
    }
  }
}

}  // namespace mdsim

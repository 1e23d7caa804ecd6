#include "core/cluster.h"

#include <algorithm>
#include <cassert>

namespace mdsim {

ClusterSim::ClusterSim(SimConfig config) : config_(std::move(config)) {}

ClusterSim::~ClusterSim() = default;

void ClusterSim::build() {
  if (cell_) return;
  cell_ = std::make_unique<Cell>(sim_, config_);
  Cell& cell = *cell_;

  clients_.reserve(static_cast<std::size_t>(config_.num_clients));
  std::vector<ClientStats*> stats;
  for (ClientId c = 0; c < config_.num_clients; ++c) {
    clients_.push_back(std::make_unique<ClientCohort>(
        sim_, *cell.net, cell.tree, *cell.workload, *cell.partition,
        *cell.dirfrag, /*count=*/1, c, config_.num_mds, config_.seed));
    // Align each client with the user whose home it primarily works in,
    // so permission checks reflect ownership.
    if (config_.fs.num_users > 0) {
      clients_.back()->set_uid(
          0, 100 + static_cast<std::uint32_t>(c % config_.fs.num_users));
    }
    clients_.back()->set_retry_policy(config_.client_retry);
    clients_.back()->set_hedge_policy(config_.hedge);
    clients_.back()->set_tracer(cell.tracer.get());
    stats.push_back(&clients_.back()->stats());
  }
  cell.measure(std::move(stats));
}

void ClusterSim::run_until(SimTime t) {
  build();
  if (!started_) {
    started_ = true;
    for (auto& c : clients_) c->start();
    sim_.every(config_.sample_period, config_.sample_period,
               [this]() {
                 metrics().sample(sim_.now());
                 return true;
               });
    if (config_.warmup > 0) {
      sim_.schedule(config_.warmup, [this]() { cell_->reset_window(); });
    }
  }
  sim_.run_until(t);
}

void ClusterSim::run() { run_until(config_.duration); }

void ClusterSim::fail_mds(MdsId failed, bool warm_takeover) {
  build();
  assert(failed >= 0 && failed < config_.num_mds && config_.num_mds > 1);
  cell_->ctx->params.warm_takeover = warm_takeover;
  MdsNode& dead = mds(failed);
  dead.set_failed(true);
  network().set_down(failed, true);
  fault_log().note_crash(failed, sim_.now());

  // Strategies that exchange balancer heartbeats detect the crash
  // themselves: the node simply goes silent, survivors declare it dead
  // after heartbeat_miss_threshold missed periods, and the lowest live id
  // performs the takeover (recovery.cc). Nothing more to do here — the
  // unavailability window between crash and takeover is the measurement.
  if (traits_for(config_.strategy).load_balancing) return;

  // No heartbeats (hashed / static strategies): apply the redistribution
  // directly, as an external monitor would.
  std::vector<MdsId> survivors;
  dirfrag().set_node_alive(failed, false);
  for (MdsId i = 0; i < config_.num_mds; ++i) {
    if (i == failed || mds(i).failed()) continue;
    survivors.push_back(i);
    mds(i).mark_peer_down(failed);
  }
  assert(!survivors.empty());
  fault_log().note_detection(failed, survivors.front(), sim_.now());

  // Subtree strategies re-delegate; hashed placements would re-map their
  // hash ranges, which is exactly the expansion/contraction weakness the
  // paper describes — out of scope.
  auto* subtree = dynamic_cast<SubtreePartition*>(&partition());
  std::vector<MdsId> takeover_nodes;
  if (subtree != nullptr) {
    std::size_t rr = 0;
    for (const FsNode* root : subtree->delegations_of(failed)) {
      const MdsId heir = survivors[rr++ % survivors.size()];
      subtree->delegate(root, heir);
      takeover_nodes.push_back(heir);
    }
    if (subtree->authority_of(tree().root()) == failed) {
      subtree->delegate(tree().root(), survivors.front());
      takeover_nodes.push_back(survivors.front());
    }
  }
  if (takeover_nodes.empty()) takeover_nodes.push_back(survivors.front());
  fault_log().note_takeover(failed, sim_.now());

  if (warm_takeover) {
    // The failed node's journal lives on shared storage: every takeover
    // node replays it and installs the items it now owns (section 4.6).
    std::sort(takeover_nodes.begin(), takeover_nodes.end());
    takeover_nodes.erase(
        std::unique(takeover_nodes.begin(), takeover_nodes.end()),
        takeover_nodes.end());
    const auto working_set = dead.journal().replay();
    for (MdsId heir : takeover_nodes) {
      mds(heir).warm_from_journal(working_set);
    }
  }
}

void ClusterSim::set_fail_slow(MdsId node, double cpu_mult, double disk_mult) {
  build();
  assert(node >= 0 && node < config_.num_mds);
  mds(node).set_fail_slow(cpu_mult, disk_mult);
  if (cpu_mult != 1.0 || disk_mult != 1.0) {
    fault_log().note_fail_slow(node, sim_.now());
  } else {
    fault_log().note_fail_slow_cleared(node, sim_.now());
  }
}

void ClusterSim::recover_mds(MdsId node) {
  build();
  MdsNode& n = mds(node);
  assert(n.failed());
  n.set_failed(false);
  network().set_down(node, false);
  fault_log().note_restart(node, sim_.now());
  // Journal replay + cache warm-up with real disk latency; serving
  // resumes immediately, recovering() clears when the replay lands.
  n.restart();

  if (traits_for(config_.strategy).load_balancing) {
    return;  // peers mark it up when its heartbeats resume
  }
  dirfrag().set_node_alive(node, true);
  for (MdsId i = 0; i < config_.num_mds; ++i) {
    if (i == node || mds(i).failed()) continue;
    mds(i).mark_peer_up(node);
  }
  fault_log().note_marked_up(node, sim_.now());
}

}  // namespace mdsim

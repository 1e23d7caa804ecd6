#include "core/cell.h"

#include <algorithm>
#include <cassert>

namespace mdsim {

namespace {

/// Decorrelate per-shard seeds without losing determinism.
std::uint64_t shard_seed(std::uint64_t seed, int s) {
  return seed + static_cast<std::uint64_t>(s) * 0x9e3779b97f4a7c15ULL;
}

}  // namespace

int shard_share(int total, int shards, int s) {
  if (shards == 1) return total;
  return std::max(1, total / shards + (s < total % shards ? 1 : 0));
}

Cell::Cell(Simulation& sim_in, const SimConfig& config, int s, int shards,
           CrossShardLink* link)
    : sim(sim_in), fs(config.fs) {
  // --- namespace -----------------------------------------------------------
  // Distinct namespace seeds keep shard trees distinct populations rather
  // than copies of one tree.
  fs.num_users = shard_share(config.fs.num_users, shards, s);
  fs.seed = shard_seed(config.fs.seed, s);
  ns_info = generate_namespace(tree, fs);

  // --- shared substrates ---------------------------------------------------
  NetworkParams net_params = config.net;
  net_params.seed = shard_seed(config.seed, s);
  net = std::make_unique<Network>(sim, net_params);
  if (link != nullptr) net->set_shard(s, link);

  const int mds_count = shard_share(config.num_mds, shards, s);
  partition = make_partitioner(config.strategy, mds_count, tree);
  dirfrag =
      std::make_unique<DirFragRegistry>(mds_count, config.mds.giga_max_depth);
  if (config.strategy == StrategyKind::kLazyHybrid) {
    lazy = std::make_unique<LazyHybridManager>(tree);
  }

  // Figure 4 knob: cache capacity as a fraction of total metadata.
  MdsParams mds_params = config.mds;
  if (config.cache_fraction > 0.0) {
    const double total = static_cast<double>(tree.node_count());
    const double per_node = total * config.cache_fraction / mds_count;
    mds_params.cache_capacity =
        std::max<std::size_t>(64, static_cast<std::size_t>(per_node));
    mds_params.journal_capacity = mds_params.cache_capacity;
  }

  StrategyTraits traits = traits_for(config.strategy);
  if (config.force_whole_dir_io == 0) traits.whole_directory_io = false;
  if (config.force_whole_dir_io == 1) traits.whole_directory_io = true;

  ctx = std::make_unique<ClusterContext>(ClusterContext{
      sim, *net, tree, store, *partition, *dirfrag, anchors, lazy.get(),
      traits, mds_params, mds_count, &fault_log, {}});

  // --- MDS nodes (network addresses == MdsIds, attached first) -----------
  mds_nodes.reserve(static_cast<std::size_t>(mds_count));
  for (MdsId i = 0; i < mds_count; ++i) {
    auto node = std::make_unique<MdsNode>(*ctx, i);
    const NetAddr addr = net->attach(node.get());
    assert(addr == i);
    (void)addr;
    ctx->nodes.push_back(node.get());
    mds_nodes.push_back(std::move(node));
  }
  for (auto& node : mds_nodes) node->bootstrap();

  // --- workload ------------------------------------------------------------
  // Every target comes from this cell's own tree, so a sharded run behaves
  // like correlated instances of the single-engine scenario.
  switch (config.workload) {
    case WorkloadKind::kGeneral:
      workload = std::make_unique<GeneralWorkload>(
          tree, ns_info.user_roots, OpMix::general_purpose(), config.general);
      break;
    case WorkloadKind::kScientific: {
      std::vector<FsNode*> runs;
      for (FsNode* proj : ns_info.project_roots) {
        for (const auto& [_, child] : proj->children()) {
          if (child->is_dir()) runs.push_back(child.get());
        }
      }
      if (runs.empty()) runs = ns_info.user_roots;  // degenerate config
      workload = std::make_unique<ScientificWorkload>(tree, std::move(runs),
                                                      config.scientific);
      break;
    }
    case WorkloadKind::kFlashCrowd: {
      // A deterministic, unremarkable file: the crowd's shared target
      // (a distinct one per shard).
      assert(!tree.files().empty());
      FsNode* target =
          tree.files()[shard_seed(config.seed, s) % tree.files().size()];
      auto fc =
          std::make_unique<FlashCrowdWorkload>(tree, target, config.flash);
      if (config.flash.base_think > 0) {
        // Background pool for the spike-on-baseline shape: every file in
        // the namespace (ownership stays with the tree).
        fc->set_background(tree.files());
      }
      workload = std::move(fc);
      break;
    }
    case WorkloadKind::kShifting: {
      auto* subtree = dynamic_cast<SubtreePartition*>(partition.get());
      assert(subtree != nullptr &&
             "shifting workload requires a subtree strategy");
      ShiftingWorkloadParams sp = config.shifting;
      sp.base = config.general;
      workload =
          make_shifting_workload(tree, ns_info.user_roots, *subtree, sp);
      break;
    }
  }

  if (config.trace.enabled) {
    tracer = std::make_unique<TraceCollector>(config.trace.slowest_n);
  }
}

void Cell::measure(std::vector<ClientStats*> clients) {
  std::vector<MdsNode*> nodes;
  for (auto& n : mds_nodes) nodes.push_back(n.get());
  metrics = std::make_unique<Metrics>(std::move(nodes), std::move(clients));
  metrics->set_fault_log(&fault_log);
  metrics->set_trace(tracer.get());
}

void Cell::reset_window() {
  metrics->reset(sim.now());
  net->reset_counters();
}

}  // namespace mdsim

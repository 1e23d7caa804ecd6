// Timed calls into the simulator's hot public functions, with inputs
// shaped like the workload. Each returns the median of several timed
// batches, in host time per call.
#pragma once

#include <cstddef>

#include "core/config.h"
#include "fstree/tree.h"

namespace perfbench {

/// Simulation::schedule + firing, with `depth` other events pending.
double schedule_fire_ns(std::size_t depth);

/// Network::send to delivery among `endpoints` attached endpoints.
double send_deliver_ns(int endpoints);

/// LocationCache::resolve of random files of `tree`, with a hint learned
/// for each directory (up to the cache's default capacity).
double resolve_ns(const mdsim::FsTree& tree, int num_mds);

/// MetadataCache::lookup of random files of `tree` in a cache of
/// `capacity` entries filled by demand inserts with their ancestors.
double lookup_ns(const mdsim::FsTree& tree, std::size_t capacity);

/// ShardedSimulation::run_until per lockstep window, each window holding
/// one trivial event per shard, at `threads` worker threads.
double window_us(int shards, int threads, mdsim::SimTime lookahead);

}  // namespace perfbench

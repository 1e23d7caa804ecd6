// The benchmark's adapter (perfbench/adapter.{h,cc}) names this type and is
// frozen until the next benchmark change; re-point it at ClusterSim then
// and delete this header. ClusterSim runs any shard count.
#pragma once

#include "core/cluster.h"

namespace mdsim {

using ShardedClusterSim = ClusterSim;

}  // namespace mdsim

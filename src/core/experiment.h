// Sweep driver: run a batch of independent simulations (optionally on a
// thread pool — each ClusterSim is fully self-contained) and collect the
// aggregate numbers the paper's figures plot.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/cluster.h"

namespace mdsim {

/// Run one configured simulation, at any shard count, to completion and
/// summarize it. `inspect`, if given, runs against the finished cluster
/// (extra metrics).
RunResult run_one(const SimConfig& config,
                  const std::function<void(ClusterSim&)>& inspect = {});

/// Run a batch, at most `parallelism` at a time (1 = serial, 0 = hardware
/// concurrency). Results are returned in input order. A config ClusterSim
/// rejects throws its std::invalid_argument to the caller.
std::vector<RunResult> run_batch(const std::vector<SimConfig>& configs,
                                 unsigned parallelism = 0);

}  // namespace mdsim

// Shared helpers for the figure-reproduction benches: output directory,
// CSV plumbing and console framing.
#pragma once

#include <filesystem>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/csv.h"
#include "common/table.h"
#include "core/experiment.h"

namespace mdsim::bench {

/// Directory all bench CSVs land in (created on demand).
inline std::string results_dir() {
  const char* env = std::getenv("MDSIM_RESULTS_DIR");
  std::string dir = env != nullptr ? env : "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::string csv_path(const std::string& name) {
  return results_dir() + "/" + name + ".csv";
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=====================================================\n"
            << title << "\n"
            << paper_ref << "\n"
            << "=====================================================\n";
}

/// --overload-noop: enable the overload gate with limits no request can
/// reach (depth bounds at SIZE_MAX, no backlog bound, no bucket, no
/// deadline drops). The run must be byte-identical to one with the gate
/// disabled — CI diffs the CSVs to prove the protection layer is
/// zero-cost when it never fires.
inline void apply_overload_noop(SimConfig* cfg) {
  OverloadParams& ov = cfg->mds.overload;
  ov.enabled = true;
  ov.max_cpu_queue_depth = std::numeric_limits<std::size_t>::max();
  ov.max_cpu_queue_delay = 0;
  ov.max_disk_queue_depth = std::numeric_limits<std::size_t>::max();
  ov.admit_rate = 0.0;
  ov.deadline_drop = false;
}

/// --giga-off: fall back to all-at-once directory hashing. Runs that
/// never fragment a directory must be byte-identical either way — CI
/// diffs the fig CSVs to prove the GIGA+ layer is zero-cost when no
/// directory ever splits.
inline void apply_giga_off(SimConfig* cfg) { cfg->mds.giga_enabled = false; }

/// --gray-noop: enable the gray-failure layer armed so it can never act
/// — health scoring with thresholds no score can cross (so no node is
/// ever flagged and the balancer is never biased) and hedging with a
/// warmup no op class can finish (so no hedge ever fires and no extra
/// RNG is drawn). The run must be byte-identical to one with the layer
/// disabled — CI diffs the fig CSVs to prove detection + hedging are
/// zero-cost on healthy paths.
inline void apply_gray_noop(SimConfig* cfg) {
  HealthParams& h = cfg->mds.health;
  h.enabled = true;
  h.degraded_factor = 1e300;  // finite: inf * a zero median would be NaN
  h.min_lag = std::numeric_limits<SimTime>::max();
  cfg->hedge.enabled = true;
  cfg->hedge.min_samples = std::numeric_limits<std::uint32_t>::max();
}

/// A bench's exit code: `body()`'s, or 2 when ClusterSim rejects a
/// configuration (std::invalid_argument, such as more shards than MDSs),
/// as for a bad flag.
template <typename Body>
int exit_code_of(Body body) {
  try {
    return body();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

/// All five strategies in the paper's legend order.
inline const std::vector<StrategyKind>& all_strategies() {
  static const std::vector<StrategyKind> kAll = {
      StrategyKind::kStaticSubtree, StrategyKind::kDynamicSubtree,
      StrategyKind::kDirHash, StrategyKind::kLazyHybrid,
      StrategyKind::kFileHash};
  return kAll;
}

}  // namespace mdsim::bench

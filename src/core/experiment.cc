#include "core/experiment.h"

#include <atomic>
#include <exception>
#include <thread>

namespace mdsim {

RunResult run_one(const SimConfig& config,
                  const std::function<void(ClusterSim&)>& inspect) {
  ClusterSim cluster(config);
  cluster.run();
  RunResult r = cluster.result();
  if (inspect) inspect(cluster);
  return r;
}

std::vector<RunResult> run_batch(const std::vector<SimConfig>& configs,
                                 unsigned parallelism) {
  if (parallelism == 0) {
    parallelism = std::max(1u, std::thread::hardware_concurrency());
  }
  std::vector<RunResult> results(configs.size());
  if (parallelism == 1 || configs.size() == 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      results[i] = run_one(configs[i]);
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  // What a run threw, rethrown on the calling thread after the join.
  std::vector<std::exception_ptr> errors(configs.size());
  auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= configs.size()) return;
      try {
        results[i] = run_one(configs[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const unsigned n = std::min<unsigned>(
      parallelism, static_cast<unsigned>(configs.size()));
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace mdsim

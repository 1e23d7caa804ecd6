#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "cache/metadata_cache.h"
#include "client/location_cache.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/sharded.h"
#include "sim/simulation.h"

namespace perfbench {

using namespace mdsim;

namespace {

constexpr int kSamples = 7;

/// Written after each timed loop so the compiler keeps the loop's calls.
volatile std::uint64_t g_sink = 0;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median over kSamples calls of `batch`, each doing `per_batch` calls.
template <typename F>
double median_per_call(double per_batch, F&& batch) {
  std::vector<double> samples;
  for (int s = 0; s < kSamples; ++s) {
    const double t0 = now_ns();
    batch();
    samples.push_back((now_ns() - t0) / per_batch);
  }
  std::nth_element(samples.begin(), samples.begin() + kSamples / 2,
                   samples.end());
  return samples[kSamples / 2];
}

struct CountingEndpoint final : NetEndpoint {
  std::uint64_t received = 0;
  void on_message(NetAddr, MessagePtr) override { ++received; }
};

}  // namespace

double schedule_fire_ns(std::size_t depth) {
  Simulation sim;
  // Parked far past every timed batch, these hold the heap at `depth`.
  constexpr SimTime kFar = SimTime{1} << 60;
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_at(kFar + i, [] {});
  }
  constexpr int kBatch = 1 << 14;
  constexpr SimTime kSpread = 9973;
  std::uint64_t fired = 0;
  std::uint32_t x = 1;
  return median_per_call(kBatch, [&] {
    for (int i = 0; i < kBatch; ++i) {
      x = x * 1664525u + 1013904223u;
      sim.schedule(static_cast<SimTime>(x % kSpread), [&fired] { ++fired; });
    }
    sim.run_until(sim.now() + kSpread);
    g_sink = fired;
  });
}

double send_deliver_ns(int endpoints) {
  Simulation sim;
  Network net(sim, NetworkParams{});
  std::vector<CountingEndpoint> eps(static_cast<std::size_t>(endpoints));
  for (auto& e : eps) net.attach(&e);
  constexpr int kBatch = 1 << 14;
  const auto n = static_cast<std::uint32_t>(endpoints);
  std::uint32_t x = 1;
  return median_per_call(kBatch, [&] {
    for (int i = 0; i < kBatch; ++i) {
      x = x * 1664525u + 1013904223u;
      const auto from = static_cast<NetAddr>((x >> 8) % n);
      const auto to = static_cast<NetAddr>((x >> 16) % n);
      net.send(from, to, std::make_unique<Message>(MsgType::kHeartbeat));
    }
    sim.run();
  });
}

double resolve_ns(const FsTree& tree, int num_mds) {
  LocationCache locations;
  for (const FsNode* d : tree.dirs()) {
    locations.learn({LocationHint{
        d->ino(), static_cast<MdsId>(d->ino() % static_cast<InodeId>(num_mds)),
        false}});
  }
  const auto& files = tree.files();
  constexpr int kBatch = 1 << 16;
  Rng pick(11);
  Rng draw(13);
  return median_per_call(kBatch, [&] {
    std::uint64_t sum = 0;
    for (int i = 0; i < kBatch; ++i) {
      sum += static_cast<std::uint64_t>(locations.resolve(
          files[pick.uniform(files.size())], draw, num_mds));
    }
    g_sink = sum;
  });
}

double lookup_ns(const FsTree& tree, std::size_t capacity) {
  MetadataCache cache(capacity);
  const auto& files = tree.files();
  Rng rng(17);
  std::vector<FsNode*> chain;
  SimTime now = 0;
  // Fill the way an MDS traversal does: ancestors as prefixes, then the
  // target on demand, until the cache is full.
  for (std::size_t n = 0; n < files.size() && cache.size() < capacity; ++n) {
    FsNode* f = files[rng.uniform(files.size())];
    f->ancestry_into(chain);
    for (FsNode* a : chain) {
      if (a != f) cache.insert(a, InsertKind::kPrefix, true, ++now);
    }
    cache.insert(f, InsertKind::kDemand, true, ++now);
  }
  constexpr int kBatch = 1 << 16;
  return median_per_call(kBatch, [&] {
    std::uint64_t hits = 0;
    for (int i = 0; i < kBatch; ++i) {
      hits += cache.lookup(files[rng.uniform(files.size())]->ino(), ++now) !=
              nullptr;
    }
    g_sink = hits;
  });
}

double window_us(int shards, int threads, SimTime lookahead) {
  ShardedSimulation engine(shards, lookahead);
  engine.set_threads(threads);
  for (int s = 0; s < shards; ++s) {
    engine.shard(s).every(lookahead, 0, [] { return true; });
  }
  constexpr int kWindows = 2000;
  SimTime until = 0;
  return median_per_call(kWindows, [&] {
           until += kWindows * lookahead;
           engine.run_until(until - 1);
         }) /
         1e3;
}

}  // namespace perfbench

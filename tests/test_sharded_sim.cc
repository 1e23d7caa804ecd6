#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "sim/sharded.h"

namespace mdsim {
namespace {

// --- engine semantics --------------------------------------------------

struct Chain {
  Simulation* sim = nullptr;
  std::vector<std::pair<SimTime, int>>* trace = nullptr;
  int id = 0;
  SimTime step = 0;
  int remaining = 0;
  void fire() {
    trace->emplace_back(sim->now(), id);
    if (--remaining > 0) {
      sim->schedule(step, [this] { fire(); });
    }
  }
};

void seed_chains(Simulation& sim,
                 std::vector<std::unique_ptr<Chain>>& chains,
                 std::vector<std::pair<SimTime, int>>& trace,
                 std::uint64_t seed) {
  Rng rng(seed, 0x5eed);
  for (int k = 0; k < 6; ++k) {
    auto c = std::make_unique<Chain>();
    c->sim = &sim;
    c->trace = &trace;
    c->id = k;
    c->step = 50 + rng.uniform(500);
    c->remaining = 20 + static_cast<int>(rng.uniform(30));
    const SimTime start = rng.uniform(300);
    sim.schedule_at(start, [p = c.get()] { p->fire(); });
    chains.push_back(std::move(c));
  }
}

TEST(ShardedSim, SingleShardMatchesPlainSimulation) {
  // The windowed driver must be invisible: one shard, no cross traffic,
  // identical event trace and clock to a plain Simulation run.
  std::vector<std::pair<SimTime, int>> plain_trace, sharded_trace;
  std::vector<std::unique_ptr<Chain>> a, b;

  Simulation plain;
  seed_chains(plain, a, plain_trace, 99);
  const std::uint64_t plain_events = plain.run_until(8000);

  ShardedSimulation eng(1, /*lookahead=*/100);
  seed_chains(eng.shard(0), b, sharded_trace, 99);
  const std::uint64_t sharded_events = eng.run_until(8000);

  EXPECT_EQ(plain_trace, sharded_trace);
  EXPECT_EQ(plain_events, sharded_events);
  EXPECT_EQ(plain.events_executed(), eng.events_executed());
  EXPECT_EQ(plain.now(), eng.shard(0).now());
}

TEST(ShardedSim, ClocksEndExactlyAtUntil) {
  ShardedSimulation eng(3, 100);
  eng.shard(1).schedule(10, [] {});
  eng.run_until(1000);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(eng.shard(s).now(), 1000);
  EXPECT_EQ(eng.run_until(2000), 0u);  // nothing left to execute
  for (int s = 0; s < 3; ++s) EXPECT_EQ(eng.shard(s).now(), 2000);
}

TEST(ShardedSim, CrossPostRunsAtStampedTimeInDestinationEngine) {
  ShardedSimulation eng(2, 1000);
  std::vector<SimTime> at;
  eng.shard(0).schedule(500, [&] {
    const SimTime when = eng.shard(0).now() + 1000;  // exactly lookahead
    eng.post(0, 1, when, InlineTask([&] {
      at.push_back(eng.shard(1).now());
    }));
  });
  eng.run_until(5000);
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 1500);
  EXPECT_EQ(eng.cross_posts(), 1u);
}

// --- cross-shard ordering determinism (the tentpole invariant) ---------

// A mesh of drivers, one per shard, all firing at the same instants and
// posting into randomly chosen destination shards with delivery exactly
// lookahead away — so every round, several sources' messages land in the
// same destination at the same simulated instant. The drained order (and
// therefore the same-instant tie-break) must be a pure function of the
// simulation: any thread count, any seed, byte-identical traces.
struct MeshRun {
  std::vector<std::string> lines;
  std::uint64_t events = 0;
  std::uint64_t crossings = 0;
};

MeshRun run_mesh(std::uint64_t seed, int threads, int shards) {
  constexpr SimTime kLookahead = 1000;
  ShardedSimulation eng(shards, kLookahead);
  eng.set_threads(threads);
  std::vector<std::vector<std::string>> traces(
      static_cast<std::size_t>(shards));

  struct Driver {
    ShardedSimulation* eng = nullptr;
    std::vector<std::vector<std::string>>* traces = nullptr;
    int s = 0;
    int shards = 0;
    Rng rng;
    int payload = 0;
    void fire() {
      Simulation& sim = eng->shard(s);
      for (int k = 0; k < 2; ++k) {
        int d = static_cast<int>(rng.uniform(
            static_cast<std::uint64_t>(shards - 1)));
        if (d >= s) ++d;
        const int p = payload++;
        const int src = s;
        Simulation* dest_sim = &eng->shard(d);
        auto* tr = &(*traces)[static_cast<std::size_t>(d)];
        eng->post(s, d, sim.now() + kLookahead,
                  InlineTask([tr, dest_sim, src, p] {
                    tr->push_back(std::to_string(dest_sim->now()) + ":" +
                                  std::to_string(src) + ":" +
                                  std::to_string(p));
                  }));
      }
      if (sim.now() + 500 <= 20000) sim.schedule(500, [this] { fire(); });
    }
  };

  std::vector<std::unique_ptr<Driver>> drivers;
  for (int s = 0; s < shards; ++s) {
    auto d = std::make_unique<Driver>();
    d->eng = &eng;
    d->traces = &traces;
    d->s = s;
    d->shards = shards;
    d->rng = Rng(seed, static_cast<std::uint64_t>(s));
    eng.shard(s).schedule_at(0, [p = d.get()] { p->fire(); });
    drivers.push_back(std::move(d));
  }

  MeshRun out;
  out.events = eng.run_until(25000);
  out.crossings = eng.cross_posts();
  for (int s = 0; s < shards; ++s) {
    out.lines.push_back("shard " + std::to_string(s));
    for (auto& l : traces[static_cast<std::size_t>(s)]) {
      out.lines.push_back(std::move(l));
    }
  }
  return out;
}

TEST(ShardedSim, SameInstantCrossTrafficIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const MeshRun base = run_mesh(seed, /*threads=*/1, /*shards=*/4);
    EXPECT_GT(base.crossings, 0u);
    for (int threads : {2, 4}) {
      const MeshRun run = run_mesh(seed, threads, 4);
      EXPECT_EQ(base.lines, run.lines)
          << "seed " << seed << ", threads " << threads;
      EXPECT_EQ(base.events, run.events);
      EXPECT_EQ(base.crossings, run.crossings);
    }
  }
}

TEST(ShardedSim, MeshRepeatsByteIdenticalAtSameThreadCount) {
  const MeshRun a = run_mesh(7, 4, 4);
  const MeshRun b = run_mesh(7, 4, 4);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.events, b.events);
}

// --- the pool's one primitive ------------------------------------------

TEST(ShardedSim, ForEachShardVisitsEveryShardOnce) {
  constexpr int kShards = 5;
  // 8 asks for more threads than shards (clamped to the shard count).
  for (int threads : {1, 3, 4, 8}) {
    ShardedSimulation engine(kShards, kMillisecond);
    engine.set_threads(threads);
    std::vector<std::atomic<int>> visits(kShards);
    engine.for_each_shard([&](int s) {
      visits[static_cast<std::size_t>(s)].fetch_add(1);
    });
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(visits[static_cast<std::size_t>(s)].load(), 1)
          << "threads " << threads << ", shard " << s;
    }

    // Shards 3 and 1 throw: the round still visits every shard, and the
    // lowest thrower's exception reaches the caller.
    std::vector<std::atomic<int>> seen(kShards);
    try {
      engine.for_each_shard([&](int s) {
        seen[static_cast<std::size_t>(s)].fetch_add(1);
        if (s == 1 || s == 3) {
          throw std::runtime_error("shard " + std::to_string(s));
        }
      });
      ADD_FAILURE() << "no exception, threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1") << "threads " << threads;
    }
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(seen[static_cast<std::size_t>(s)].load(), 1)
          << "threads " << threads << ", shard " << s;
    }

    // The pool still runs windows afterwards.
    std::vector<int> fired(kShards, 0);
    for (int s = 0; s < kShards; ++s) {
      engine.shard(s).schedule_at(2 * kMillisecond, [&fired, s] {
        ++fired[static_cast<std::size_t>(s)];
      });
    }
    engine.run_until(5 * kMillisecond);
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(fired[static_cast<std::size_t>(s)], 1)
          << "threads " << threads << ", shard " << s;
      EXPECT_EQ(engine.shard(s).now(), 5 * kMillisecond);
    }
  }
}

// --- full-cluster determinism ------------------------------------------

RunResult run_cluster(int threads, std::uint64_t* events) {
  SimConfig cfg;
  cfg.num_mds = 4;
  cfg.num_clients = 40;
  cfg.fs.num_users = 4;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 400 * kMillisecond;
  cfg.warmup = 100 * kMillisecond;
  cfg.shards = 2;
  cfg.threads = threads;
  ClusterSim cluster(cfg);
  cluster.run();
  *events = cluster.engine().events_executed();
  return cluster.result();
}

TEST(ShardedSim, ClusterResultsIdenticalAcrossThreadCounts) {
  std::uint64_t ev1 = 0, ev2 = 0;
  const RunResult r1 = run_cluster(1, &ev1);
  const RunResult r2 = run_cluster(2, &ev2);
  EXPECT_EQ(ev1, ev2);
  EXPECT_EQ(r1.replies, r2.replies);
  EXPECT_EQ(r1.failures, r2.failures);
  EXPECT_EQ(r1.avg_mds_throughput, r2.avg_mds_throughput);
  EXPECT_EQ(r1.hit_rate, r2.hit_rate);
  EXPECT_EQ(r1.forward_fraction, r2.forward_fraction);
  EXPECT_EQ(r1.mean_latency_ms, r2.mean_latency_ms);
  EXPECT_GT(r1.replies, 0u);
}

// A two-shard overloaded cluster whose client links spike past the request
// timeout: each shard's clients share one wheel-timed cohort, and with no
// jitter many requests reach an MDS at the same instant, so same-instant
// tie-breaks decide which are dropped as duplicates and which are shed for
// each of the three reasons. Thread count must not change any of it.
SimConfig overloaded_config(int threads) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 6;
  cfg.shards = 2;
  cfg.threads = threads;
  cfg.num_clients = 1200;
  cfg.fs.num_users = 12;
  cfg.fs.nodes_per_user = 150;
  cfg.duration = 6 * kSecond;
  cfg.warmup = 2 * kSecond;
  cfg.net.jitter_mean = 0;
  cfg.trace.enabled = true;
  cfg.mds.overload.enabled = true;
  cfg.mds.overload.admit_rate = 300;
  cfg.mds.overload.admit_burst = 8;
  cfg.mds.overload.max_cpu_queue_depth = 2;
  cfg.client_retry.request_timeout = 300 * kMillisecond;
  return cfg;
}

void run_overloaded(ClusterSim& c) {
  c.run_until(0);
  LinkFault spike;
  spike.spike = 0.3;
  spike.spike_latency = kSecond;
  for (int s = 0; s < c.num_shards(); ++s) {
    Network& net = *c.cell(s).net;
    const int mds = c.cell(s).num_mds();
    for (int a = mds; a < static_cast<int>(net.endpoint_count()); ++a) {
      for (int b = 0; b < mds; ++b) net.set_link_fault(a, b, spike);
    }
  }
  c.run();
}

/// Per MDS, the request-path counters match between two runs.
void expect_same_request_counters(ClusterSim& x, ClusterSim& y) {
  ASSERT_EQ(x.num_mds(), y.num_mds());
  for (int i = 0; i < x.num_mds(); ++i) {
    const MdsStats& a = x.mds(i).stats();
    const MdsStats& b = y.mds(i).stats();
    EXPECT_EQ(a.requests_received, b.requests_received) << "mds " << i;
    EXPECT_EQ(a.first_hop_requests, b.first_hop_requests) << "mds " << i;
    EXPECT_EQ(a.forwards, b.forwards) << "mds " << i;
    EXPECT_EQ(a.duplicate_updates_dropped, b.duplicate_updates_dropped)
        << "mds " << i;
    EXPECT_EQ(a.requests_shed_queue, b.requests_shed_queue) << "mds " << i;
    EXPECT_EQ(a.requests_shed_admission, b.requests_shed_admission)
        << "mds " << i;
    EXPECT_EQ(a.requests_shed_deadline, b.requests_shed_deadline)
        << "mds " << i;
  }
}

TEST(ShardedSim, OverloadedClusterIdenticalAcrossThreadCounts) {
  ClusterSim one(overloaded_config(1));
  ClusterSim two(overloaded_config(2));
  run_overloaded(one);
  run_overloaded(two);
  std::uint64_t dups = 0, queue = 0, bucket = 0, deadline = 0;
  for (int i = 0; i < one.num_mds(); ++i) {
    const MdsStats& st = one.mds(i).stats();
    dups += st.duplicate_updates_dropped;
    queue += st.requests_shed_queue;
    bucket += st.requests_shed_admission;
    deadline += st.requests_shed_deadline;
  }
  EXPECT_GT(dups, 0u);
  EXPECT_GT(queue, 0u);
  EXPECT_GT(bucket, 0u);
  EXPECT_GT(deadline, 0u);
  expect_same_request_counters(one, two);
  EXPECT_EQ(one.engine().events_executed(), two.engine().events_executed());
}

// A spike-on-baseline flash crowd (base_think > 0) carries its background
// load on every shard: with the run ending before the crowd starts, the
// clients still complete work instead of idling until the crowd.
TEST(ShardedSim, FlashCrowdBaselineLoadRunsBeforeTheCrowd) {
  SimConfig cfg;
  cfg.workload = WorkloadKind::kFlashCrowd;
  cfg.num_mds = 4;
  cfg.num_clients = 40;
  cfg.fs.num_users = 4;
  cfg.fs.nodes_per_user = 200;
  cfg.flash.base_think = 20 * kMillisecond;
  cfg.duration = 400 * kMillisecond;
  cfg.warmup = 100 * kMillisecond;
  cfg.shards = 2;
  ASSERT_LE(cfg.duration, cfg.flash.start);
  ClusterSim cluster(cfg);
  cluster.run();
  EXPECT_GT(cluster.result().replies, 0u);
}

// --- one cluster type at any shard count -------------------------------

SimConfig two_shard_config() {
  SimConfig cfg;
  cfg.num_mds = 4;
  cfg.num_clients = 40;
  cfg.fs.num_users = 4;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 3 * kSecond;
  cfg.warmup = kSecond;
  cfg.shards = 2;
  return cfg;
}

TEST(ClusterSim, RejectsShardCountsOutsideOneToNumMds) {
  SimConfig cfg = two_shard_config();
  for (int shards : {0, -1, cfg.num_mds + 1}) {
    cfg.shards = shards;
    EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument) << shards;
  }
  cfg.shards = cfg.num_mds;  // one MDS per shard is the most there is
  EXPECT_NO_THROW(ClusterSim{cfg});
  // Global addresses cap the engine at kMaxShards, however many MDSs.
  cfg.num_mds = kMaxShards + 1;
  cfg.shards = kMaxShards + 1;
  EXPECT_THROW(ClusterSim{cfg}, std::invalid_argument);
}

// Every cell samples its Metrics each sample_period, whatever the shard
// count, so the figure time series exist for sharded runs too.
TEST(ClusterSim, ShardedCellsSampleTimeSeries) {
  ClusterSim cluster(two_shard_config());
  cluster.run();
  ASSERT_EQ(cluster.num_shards(), 2);
  for (int s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_FALSE(cluster.cell(s).metrics->avg_throughput().empty()) << s;
  }
}

// client_stats() is the whole run's client tally at any shard count: the
// per-client sum at one shard, the per-shard cohorts' sum at two.
TEST(ClusterSim, ClientStatsSumsEveryCohort) {
  // Field by field, latencies merged in cohort order.
  auto add = [](ClientStats& t, const ClientStats& s) {
    t.ops_issued += s.ops_issued;
    t.ops_completed += s.ops_completed;
    t.ops_ok += s.ops_ok;
    t.ops_failed += s.ops_failed;
    t.forwarded_replies += s.forwarded_replies;
    t.retries += s.retries;
    t.stale_replies += s.stale_replies;
    t.rejected_replies += s.rejected_replies;
    t.retries_suppressed += s.retries_suppressed;
    t.giga_redirects += s.giga_redirects;
    t.hedges_fired += s.hedges_fired;
    t.hedge_wins += s.hedge_wins;
    t.wasted_hedges += s.wasted_hedges;
    t.latency_seconds.merge(s.latency_seconds);
  };
  auto expect_same = [](const ClientStats& a, const ClientStats& b) {
    EXPECT_EQ(a.ops_issued, b.ops_issued);
    EXPECT_EQ(a.ops_completed, b.ops_completed);
    EXPECT_EQ(a.ops_ok, b.ops_ok);
    EXPECT_EQ(a.ops_failed, b.ops_failed);
    EXPECT_EQ(a.forwarded_replies, b.forwarded_replies);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.stale_replies, b.stale_replies);
    EXPECT_EQ(a.rejected_replies, b.rejected_replies);
    EXPECT_EQ(a.retries_suppressed, b.retries_suppressed);
    EXPECT_EQ(a.giga_redirects, b.giga_redirects);
    EXPECT_EQ(a.hedges_fired, b.hedges_fired);
    EXPECT_EQ(a.hedge_wins, b.hedge_wins);
    EXPECT_EQ(a.wasted_hedges, b.wasted_hedges);
    EXPECT_EQ(a.latency_seconds.count(), b.latency_seconds.count());
    EXPECT_EQ(a.latency_seconds.mean(), b.latency_seconds.mean());
    EXPECT_EQ(a.latency_seconds.variance(), b.latency_seconds.variance());
    EXPECT_EQ(a.latency_seconds.min(), b.latency_seconds.min());
    EXPECT_EQ(a.latency_seconds.max(), b.latency_seconds.max());
  };
  for (int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    SimConfig cfg = two_shard_config();
    cfg.shards = shards;
    cfg.hedge.enabled = true;
    ClusterSim cluster(cfg);
    cluster.run();
    const int cohorts = shards == 1 ? cluster.num_clients() : shards;
    ClientStats want;
    for (int k = 0; k < cohorts; ++k) add(want, cluster.client(k).stats());
    const ClientStats got = cluster.client_stats();
    EXPECT_GT(got.ops_completed, 0u);
    EXPECT_GT(got.latency_seconds.count(), 0u);
    expect_same(got, want);
    // The latencies are the ones the cells' Metrics total.
    EXPECT_EQ(got.latency_seconds.mean() * 1e3,
              cluster.result().mean_latency_ms);
  }
}

// Set-up runs on the engine's workers: the cells, cohorts, catalogs and
// start-up a cluster builds on 3 or 8 threads are those of a serial build.
TEST(ClusterSim, ParallelBuildMatchesSerialBuild) {
  SimConfig cfg;
  cfg.num_mds = 8;
  cfg.num_clients = 80;
  cfg.fs.num_users = 16;
  cfg.fs.nodes_per_user = 100;
  cfg.duration = 300 * kMillisecond;
  cfg.warmup = 100 * kMillisecond;
  cfg.shards = 8;
  struct Built {
    std::vector<std::size_t> tree_nodes;
    std::uint64_t remote_ops = 0;
    std::uint64_t events = 0;
    RunResult result;
  };
  auto build = [&](int threads) {
    cfg.threads = threads;
    ClusterSim cluster(cfg);
    cluster.run();
    Built b;
    int i = 0;
    for (int s = 0; s < cluster.num_shards(); ++s) {
      b.tree_nodes.push_back(cluster.cell(s).tree.node_count());
      // mds(i) walks the cells' MDSs in shard order.
      for (const auto& node : cluster.cell(s).mds_nodes) {
        EXPECT_EQ(&cluster.mds(i++), node.get())
            << "threads " << threads << ", shard " << s;
      }
    }
    EXPECT_EQ(i, cluster.num_mds());
    b.remote_ops = cluster.remote_ops();
    b.events = cluster.engine().events_executed();
    b.result = cluster.result();
    return b;
  };
  auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  const Built serial = build(1);
  EXPECT_GT(serial.remote_ops, 0u);
  EXPECT_GT(serial.result.replies, 0u);
  for (int threads : {3, 8}) {
    SCOPED_TRACE(threads);
    const Built b = build(threads);
    EXPECT_EQ(b.tree_nodes, serial.tree_nodes);
    EXPECT_EQ(b.remote_ops, serial.remote_ops);
    EXPECT_EQ(b.events, serial.events);
    const RunResult& r = b.result;
    const RunResult& q = serial.result;
    EXPECT_EQ(r.replies, q.replies);
    EXPECT_EQ(r.failures, q.failures);
    EXPECT_EQ(bits(r.avg_mds_throughput), bits(q.avg_mds_throughput));
    EXPECT_EQ(bits(r.hit_rate), bits(q.hit_rate));
    EXPECT_EQ(bits(r.prefix_fraction), bits(q.prefix_fraction));
    EXPECT_EQ(bits(r.forward_fraction), bits(q.forward_fraction));
    EXPECT_EQ(bits(r.mean_latency_ms), bits(q.mean_latency_ms));
  }
}

// run_one takes every shard count through one path, inspect hook included:
// the hook sees the whole cluster's MDSs in global order.
TEST(ShardedSim, RunOneInspectHookSeesEveryShardsMds) {
  SimConfig cfg = two_shard_config();
  cfg.warmup = 0;  // the result then counts every reply the nodes sent
  int shards = 0;
  std::uint64_t replies = 0;
  const RunResult r = run_one(cfg, [&](ClusterSim& cluster) {
    shards = cluster.num_shards();
    for (int i = 0; i < cluster.num_mds(); ++i) {
      replies += cluster.mds(i).stats().replies_sent;
    }
  });
  EXPECT_EQ(shards, 2);
  EXPECT_GT(r.replies, 0u);
  EXPECT_EQ(replies, r.replies);
}

}  // namespace
}  // namespace mdsim

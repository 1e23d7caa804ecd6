// Same-destination delivery batching (net/network.cc).
//
// The contract under test: with batching enabled, the network may fold
// consecutive same-instant deliveries to one destination into a single
// engine event, but the observable delivery sequence — (from, type,
// arrival time) per endpoint, in order — must be byte-for-byte the
// sequence an unbatched network produces, and the engine's executed-event
// counter must be credited so event counts match too. Batching is an
// engine optimization, never a behavior change.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/cluster.h"
#include "net/network.h"

namespace mdsim {
namespace {

using Arrival = std::tuple<NetAddr, MsgType, SimTime>;

/// Default endpoint: records every delivery; batches arrive through the
/// base-class on_message_batch, which unwraps to on_message in order.
struct Recorder : NetEndpoint {
  Simulation* sim = nullptr;
  std::vector<Arrival> arrivals;
  void on_message(NetAddr from, MessagePtr msg) override {
    arrivals.push_back({from, msg->type, sim->now()});
  }
};

/// Endpoint that also counts explicit batch deliveries and their sizes.
struct BatchRecorder final : Recorder {
  std::vector<std::size_t> batch_sizes;
  void on_message_batch(Delivery* items, std::size_t n) override {
    batch_sizes.push_back(n);
    NetEndpoint::on_message_batch(items, n);
  }
};

MessagePtr make(MsgType t) { return std::make_unique<Message>(t); }

struct Rig {
  explicit Rig(bool batching, SimTime jitter = 0) {
    params.base_latency = 100;
    params.jitter_mean = jitter;
    params.delivery_batching = batching;
    net = std::make_unique<Network>(sim, params);
    for (auto& r : nodes) {
      r.sim = &sim;
      addrs.push_back(net->attach(&r));
    }
  }
  Simulation sim;
  NetworkParams params;
  std::unique_ptr<Network> net;
  BatchRecorder nodes[3];
  std::vector<NetAddr> addrs;
};

TEST(DeliveryBatch, SameInstantSameDestFoldIntoOneBatch) {
  Rig r(/*batching=*/true);
  // Three back-to-back sends to node 2, no jitter: identical delivery
  // instant, no intervening engine event — one batch of three.
  r.net->send(r.addrs[0], r.addrs[2], make(MsgType::kHeartbeat));
  r.net->send(r.addrs[1], r.addrs[2], make(MsgType::kClientRequest));
  r.net->send(r.addrs[0], r.addrs[2], make(MsgType::kClientReply));
  r.sim.run();
  ASSERT_EQ(r.nodes[2].batch_sizes.size(), 1u);
  EXPECT_EQ(r.nodes[2].batch_sizes[0], 3u);
  const std::vector<Arrival> want = {{r.addrs[0], MsgType::kHeartbeat, 100},
                                     {r.addrs[1], MsgType::kClientRequest, 100},
                                     {r.addrs[0], MsgType::kClientReply, 100}};
  EXPECT_EQ(r.nodes[2].arrivals, want);
}

TEST(DeliveryBatch, InterveningScheduleSplitsBatch) {
  Rig r(/*batching=*/true);
  r.net->send(r.addrs[0], r.addrs[2], make(MsgType::kHeartbeat));
  // Any engine schedule between two sends — even at the same instant —
  // closes the open batch so exact event interleaving is preserved.
  r.sim.schedule(100, [] {});
  r.net->send(r.addrs[0], r.addrs[2], make(MsgType::kHeartbeat));
  r.sim.run();
  EXPECT_TRUE(r.nodes[2].batch_sizes.empty());  // two singles, no batch
  ASSERT_EQ(r.nodes[2].arrivals.size(), 2u);
  EXPECT_EQ(std::get<2>(r.nodes[2].arrivals[0]), 100u);
  EXPECT_EQ(std::get<2>(r.nodes[2].arrivals[1]), 100u);
}

TEST(DeliveryBatch, AlternatingDestinationsDoNotBatch) {
  Rig r(/*batching=*/true);
  r.net->send(r.addrs[0], r.addrs[2], make(MsgType::kHeartbeat));
  r.net->send(r.addrs[0], r.addrs[1], make(MsgType::kHeartbeat));
  r.net->send(r.addrs[0], r.addrs[2], make(MsgType::kHeartbeat));
  r.sim.run();
  EXPECT_TRUE(r.nodes[1].batch_sizes.empty());
  EXPECT_TRUE(r.nodes[2].batch_sizes.empty());
  EXPECT_EQ(r.nodes[1].arrivals.size(), 1u);
  EXPECT_EQ(r.nodes[2].arrivals.size(), 2u);
}

/// Drive a mixed scenario (fan-in bursts, self-sends, jittered singles)
/// and return the full delivery record of every endpoint plus the
/// engine's executed-event count.
std::pair<std::vector<std::vector<Arrival>>, std::uint64_t> run_scenario(
    bool batching) {
  Rig r(batching, /*jitter=*/40);
  for (int round = 0; round < 20; ++round) {
    const SimTime at = static_cast<SimTime>(round) * 50;
    r.sim.schedule(at, [&r, round] {
      // Fan-in burst to one node; self-send (latency 0, always
      // same-instant); a stray message to break adjacency.
      r.net->send(r.addrs[0], r.addrs[2], make(MsgType::kClientRequest));
      r.net->send(r.addrs[1], r.addrs[2], make(MsgType::kClientRequest));
      r.net->send(r.addrs[2], r.addrs[2], make(MsgType::kHeartbeat));
      if (round % 3 == 0) {
        r.net->send(r.addrs[2], r.addrs[0], make(MsgType::kClientReply));
      }
    });
  }
  r.sim.run();
  std::vector<std::vector<Arrival>> out;
  for (auto& n : r.nodes) out.push_back(n.arrivals);
  return {out, r.sim.events_executed()};
}

TEST(DeliveryBatch, MatchesUnbatchedByteForByte) {
  const auto [batched, ev_on] = run_scenario(true);
  const auto [plain, ev_off] = run_scenario(false);
  // Identical per-endpoint delivery sequences, and the batch-fold credit
  // keeps the executed-event counter identical too.
  EXPECT_EQ(batched, plain);
  EXPECT_EQ(ev_on, ev_off);
}

TEST(DeliveryBatch, DuplicateFaultBypassesBatchingDeterministically) {
  auto run = [](bool batching) {
    Rig r(batching);
    LinkFault f;
    f.duplicate = 1.0;  // every message delivered twice
    r.net->set_link_fault(r.addrs[0], r.addrs[2], f);
    r.net->send(r.addrs[0], r.addrs[2], make(MsgType::kHeartbeat));
    r.net->send(r.addrs[0], r.addrs[2], make(MsgType::kClientRequest));
    r.sim.run();
    return r.nodes[2].arrivals;
  };
  const auto on = run(true);
  const auto off = run(false);
  EXPECT_EQ(on, off);
  EXPECT_EQ(on.size(), 4u);  // two originals + two copies
}

// ---------------------------------------------------------------------------
// Cluster integration: a zero-jitter cluster actually forms batches, and a
// sharded one forms them on the client-request fan-in path too; tracing,
// results and the MDS request counters must not notice.

SimConfig batch_cluster_config(bool batching) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 3;
  cfg.num_clients = 60;
  cfg.fs.num_users = 12;
  cfg.fs.nodes_per_user = 150;
  cfg.duration = 6 * kSecond;
  cfg.warmup = 2 * kSecond;
  // No jitter: same-instant deliveries are common, so the batching path
  // really executes.
  cfg.net.jitter_mean = 0;
  cfg.net.delivery_batching = batching;
  cfg.trace.enabled = true;
  return cfg;
}

/// Per MDS, the request-path counters a batch of client requests bumps
/// match between a batched and an unbatched run.
void expect_same_request_counters(ClusterSim& on, ClusterSim& off) {
  ASSERT_EQ(on.num_mds(), off.num_mds());
  for (int i = 0; i < on.num_mds(); ++i) {
    const MdsStats& a = on.mds(i).stats();
    const MdsStats& b = off.mds(i).stats();
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

/// A two-shard overloaded cluster whose client links spike past the
/// request timeout: each shard's clients share one wheel-timed cohort, so
/// a bucket's requests reach an MDS as one same-instant batch, and some of
/// those batches carry first-hop requests that the MDS drops as
/// duplicates or sheds for each of the three reasons.
void run_overloaded_pair(ClusterSim& on, ClusterSim& off) {
  for (ClusterSim* c : {&on, &off}) {
    c->run_until(0);
    LinkFault spike;
    spike.spike = 0.3;
    spike.spike_latency = kSecond;
    for (int s = 0; s < c->num_shards(); ++s) {
      Network& net = *c->cell(s).net;
      const int mds = c->cell(s).num_mds();
      for (int a = mds; a < static_cast<int>(net.endpoint_count()); ++a) {
        for (int b = 0; b < mds; ++b) net.set_link_fault(a, b, spike);
      }
    }
    c->run();
  }
}

SimConfig overloaded_config(bool batching) {
  SimConfig cfg = batch_cluster_config(batching);
  cfg.num_mds = 6;
  cfg.shards = 2;
  cfg.num_clients = 1200;
  cfg.mds.overload.enabled = true;
  cfg.mds.overload.admit_rate = 300;
  cfg.mds.overload.admit_burst = 8;
  cfg.mds.overload.max_cpu_queue_depth = 2;
  cfg.client_retry.request_timeout = 300 * kMillisecond;
  return cfg;
}

TEST(DeliveryBatch, ClusterResultsAndTraceTilingUnchangedByBatching) {
  ClusterSim on(batch_cluster_config(true));
  on.run();
  ClusterSim off(batch_cluster_config(false));
  off.run();
  expect_same_request_counters(on, off);

  // Simulation-observable results identical.
  EXPECT_GT(on.metrics().total_replies(), 1000u);
  EXPECT_EQ(on.metrics().total_replies(), off.metrics().total_replies());
  EXPECT_EQ(on.metrics().total_failures(), off.metrics().total_failures());
  EXPECT_EQ(on.metrics().cluster_hit_rate(), off.metrics().cluster_hit_rate());
  EXPECT_EQ(on.metrics().client_latency().sum(),
            off.metrics().client_latency().sum());
  EXPECT_EQ(on.sim().events_executed(), off.sim().events_executed());

  // Per-request stage attribution still tiles exactly, and matches the
  // unbatched run stage by stage.
  TraceCollector* ta = on.tracer();
  TraceCollector* tb = off.tracer();
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(ta->grand_total_ns(), tb->grand_total_ns());
  for (int op = 0; op < kNumOpTypes; ++op) {
    const auto o = static_cast<OpType>(op);
    std::uint64_t stage_sum = 0;
    for (int s = 0; s < kNumTraceStages; ++s) {
      const auto st = static_cast<TraceStage>(s);
      EXPECT_EQ(ta->stage_total_ns(st, o), tb->stage_total_ns(st, o));
      stage_sum += ta->stage_total_ns(st, o);
    }
    EXPECT_EQ(stage_sum, ta->total_ns(o)) << "op " << op_name(o);
  }

  // Where client-request batches shed and drop duplicates, every
  // request-path counter still matches the one-at-a-time run.
  ClusterSim hot_on(overloaded_config(true));
  ClusterSim hot_off(overloaded_config(false));
  run_overloaded_pair(hot_on, hot_off);
  std::uint64_t dups = 0, queue = 0, bucket = 0, deadline = 0;
  for (int i = 0; i < hot_off.num_mds(); ++i) {
    const MdsStats& st = hot_off.mds(i).stats();
    dups += st.duplicate_updates_dropped;
    queue += st.requests_shed_queue;
    bucket += st.requests_shed_admission;
    deadline += st.requests_shed_deadline;
  }
  EXPECT_GT(dups, 0u);
  EXPECT_GT(queue, 0u);
  EXPECT_GT(bucket, 0u);
  EXPECT_GT(deadline, 0u);
  expect_same_request_counters(hot_on, hot_off);
  EXPECT_EQ(hot_on.engine().events_executed(),
            hot_off.engine().events_executed());
}

}  // namespace
}  // namespace mdsim

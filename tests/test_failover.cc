#include <gtest/gtest.h>

#include <stdexcept>

#include "core/fault_plan.h"
#include "test_util.h"

namespace mdsim {
namespace {

SimConfig failover_config(std::uint64_t seed = 42) {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kDynamicSubtree;
  cfg.num_mds = 4;
  cfg.num_clients = 120;
  cfg.seed = seed;
  cfg.fs.seed = seed;
  cfg.fs.num_users = 32;
  cfg.fs.nodes_per_user = 200;
  cfg.duration = 30 * kSecond;
  cfg.warmup = 2 * kSecond;
  cfg.client_retry.request_timeout = kSecond;  // fast retries for the test
  return cfg;
}

TEST(Failover, DelegationsRedistributeToSurvivors) {
  ClusterSim cluster(failover_config());
  cluster.run_until(5 * kSecond);
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  ASSERT_NE(subtree, nullptr);
  const MdsId victim = 1;
  const auto owned_before = subtree->delegations_of(victim);
  ASSERT_FALSE(owned_before.empty());

  cluster.fail_mds(victim);
  EXPECT_TRUE(cluster.mds(victim).failed());
  EXPECT_TRUE(cluster.network().is_down(victim));
  // Nothing is redistributed at the crash instant: the node merely went
  // silent, and survivors have not missed enough heartbeats yet.
  EXPECT_FALSE(subtree->delegations_of(victim).empty());
  EXPECT_TRUE(cluster.mds(0).peer_alive(victim));

  // After the miss threshold (3 x 1s), every survivor has declared the
  // victim dead; the coordinator then waits out the takeover grace
  // (quorum-gated takeover) before redistributing its territory.
  cluster.run_until(15 * kSecond);
  EXPECT_TRUE(subtree->delegations_of(victim).empty());
  for (const FsNode* root : owned_before) {
    const MdsId heir = subtree->authority_of(root);
    EXPECT_NE(heir, victim);
    EXPECT_GE(heir, 0);
  }
  for (int i = 0; i < cluster.num_mds(); ++i) {
    if (i == victim) continue;
    EXPECT_FALSE(cluster.mds(i).peer_alive(victim)) << i;
    EXPECT_GT(cluster.mds(i).stats().peer_down_detections, 0u) << i;
  }

  // The incident log has the whole story: detection latency sits around
  // the miss horizon (3 heartbeat periods), never instant.
  const auto& incidents = cluster.fault_log().incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].node, victim);
  ASSERT_TRUE(incidents[0].has(incidents[0].detected_at));
  ASSERT_TRUE(incidents[0].has(incidents[0].takeover_at));
  const SimTime now = cluster.sim().now();
  const double latency =
      cluster.fault_log().detection_latency_seconds(now).mean();
  EXPECT_GT(latency, 2.0);
  EXPECT_LE(latency, 5.0);
  EXPECT_GE(cluster.fault_log().unavailability_seconds(now).mean(), latency);
}

TEST(Failover, ClusterKeepsServingThroughAFailure) {
  ClusterSim cluster(failover_config());
  cluster.run_until(8 * kSecond);
  cluster.fail_mds(1);
  cluster.run_until(24 * kSecond);

  // Clients retried onto survivors; the cluster kept answering. The
  // window starts after the grace-delayed takeover (~crash + 8s).
  Metrics& m = cluster.metrics();
  const double late_tput = m.avg_throughput().mean_in(
      17 * kSecond, 24 * kSecond);
  EXPECT_GT(late_tput, 100.0);
  EXPECT_GT(cluster.client_stats().retries, 0u);
  EXPECT_GT(cluster.network().dropped_messages(), 0u);
  // The dead node answered nothing after the failure instant.
  EXPECT_EQ(m.per_mds_throughput()[1].mean_in(9 * kSecond, 24 * kSecond),
            0.0);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << i;
  }
}

TEST(Failover, WarmTakeoverPreloadsWorkingSet) {
  ClusterSim cluster(failover_config());
  cluster.run_until(8 * kSecond);

  const MdsId victim = 1;
  const auto working_set = cluster.mds(victim).journal().replay();
  if (working_set.size() < 10) GTEST_SKIP() << "journal barely used";

  cluster.fail_mds(victim, /*warm_takeover=*/true);
  // Detection (~3-4s of missed heartbeats) + the quorum takeover grace
  // + the log replay itself.
  cluster.run_until(18 * kSecond);

  std::uint64_t warm_items = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    if (i != victim) warm_items += cluster.mds(i).stats().takeover_warm_items;
  }
  EXPECT_GT(warm_items, 0u);

  // Items from the dead node's journal that now belong to a survivor must
  // be cached at that survivor without any client having asked for them.
  std::size_t found = 0, relevant = 0;
  for (InodeId ino : working_set) {
    FsNode* n = cluster.tree().by_ino(ino);
    if (n == nullptr) continue;
    const MdsId heir = cluster.mds(0).authority_for(n);
    if (heir == victim) continue;
    ++relevant;
    if (cluster.mds(heir).cache().peek(ino) != nullptr) ++found;
  }
  if (relevant > 0) {
    EXPECT_GT(found, relevant / 2) << found << " of " << relevant;
  }
}

TEST(Failover, ColdTakeoverSkipsLogReplay) {
  // Same seed, warm vs cold: the takeover happens in both runs (survivors
  // detect the silence and redistribute), but only the warm run replays
  // the dead node's journal into the heirs' caches.
  auto warm_items_after_takeover = [](bool warm) {
    ClusterSim cluster(failover_config(99));
    cluster.run_until(8 * kSecond);
    cluster.fail_mds(1, warm);
    cluster.run_until(18 * kSecond);
    std::uint64_t takeovers = 0, items = 0;
    for (int i = 0; i < cluster.num_mds(); ++i) {
      if (i == 1) continue;
      takeovers += cluster.mds(i).stats().takeovers;
      items += cluster.mds(i).stats().takeover_warm_items;
    }
    EXPECT_GT(takeovers, 0u);
    return items;
  };
  EXPECT_GT(warm_items_after_takeover(true), 0u);
  EXPECT_EQ(warm_items_after_takeover(false), 0u);
}

TEST(Failover, RecoveryRejoinsAndServesAgain) {
  ClusterSim cluster(failover_config());
  cluster.run_until(6 * kSecond);
  cluster.fail_mds(2);
  // Restart only after the grace-delayed takeover (~detect + 4s) has
  // executed; an earlier restart would cancel the pending takeover.
  cluster.run_until(16 * kSecond);
  cluster.recover_mds(2);
  EXPECT_FALSE(cluster.mds(2).failed());
  EXPECT_FALSE(cluster.network().is_down(2));
  // Cold rejoin: cache nearly empty (root and its anchors survive).
  EXPECT_LT(cluster.mds(2).cache().size(), 16u);
  EXPECT_EQ(cluster.mds(2).cache().check_invariants(), "");

  // Give the balancer time: the rejoined node ends up doing work again.
  cluster.run_until(30 * kSecond);
  const double rejoined_tput =
      cluster.metrics().per_mds_throughput()[2].mean_in(20 * kSecond,
                                                        30 * kSecond);
  EXPECT_GT(rejoined_tput, 0.0);
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << i;
    if (i != 2) {
      EXPECT_TRUE(cluster.mds(i).peer_alive(2)) << i;
    }
  }

  // The incident traversed its whole lifecycle: crash, detection,
  // takeover, restart, journal-replay rejoin, re-marked up by a peer.
  const auto& incidents = cluster.fault_log().incidents();
  ASSERT_EQ(incidents.size(), 1u);
  const FaultIncident& inc = incidents[0];
  EXPECT_TRUE(inc.has(inc.detected_at));
  EXPECT_TRUE(inc.has(inc.takeover_at));
  EXPECT_TRUE(inc.has(inc.restarted_at));
  EXPECT_TRUE(inc.has(inc.rejoined_at));
  EXPECT_TRUE(inc.has(inc.remarked_up_at));
  EXPECT_FALSE(inc.open);
  EXPECT_FALSE(cluster.mds(2).recovering());
  EXPECT_GT(
      cluster.fault_log().recovery_time_seconds(cluster.sim().now()).mean(),
      0.0);
}

TEST(Failover, DoubleFailureStillServes) {
  SimConfig cfg = failover_config();
  cfg.num_mds = 5;
  ClusterSim cluster(cfg);
  cluster.run_until(6 * kSecond);
  cluster.fail_mds(1);
  cluster.run_until(8 * kSecond);
  cluster.fail_mds(3);
  cluster.run_until(24 * kSecond);
  const double tput = cluster.metrics().avg_throughput().mean_in(
      17 * kSecond, 24 * kSecond);
  EXPECT_GT(tput, 50.0);
  // No delegation points to dead nodes.
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  EXPECT_TRUE(subtree->delegations_of(1).empty());
  EXPECT_TRUE(subtree->delegations_of(3).empty());
}

// Strategies without heartbeats have no detector: the crash itself is the
// peer-down notice, delivered to every survivor in id order.
SimConfig no_heartbeat_config(StrategyKind strategy) {
  SimConfig cfg = failover_config();
  cfg.strategy = strategy;
  return cfg;
}

TEST(Failover, StaticSubtreeCrashHandsDelegationsRoundRobinAndRecovers) {
  ClusterSim cluster(no_heartbeat_config(StrategyKind::kStaticSubtree));
  cluster.run_until(5 * kSecond);
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  ASSERT_NE(subtree, nullptr);
  const MdsId victim = 1;
  const std::vector<MdsId> survivors = {0, 2, 3};
  const auto owned_before = subtree->delegations_of(victim);
  ASSERT_FALSE(owned_before.empty());

  const SimTime crashed_at = cluster.sim().now();
  cluster.fail_mds(victim);
  EXPECT_TRUE(cluster.mds(victim).failed());
  EXPECT_TRUE(subtree->delegations_of(victim).empty());
  for (std::size_t k = 0; k < owned_before.size(); ++k) {
    EXPECT_EQ(subtree->authority_of(owned_before[k]),
              survivors[k % survivors.size()])
        << k;
  }
  {
    const auto& incidents = cluster.fault_log().incidents();
    ASSERT_EQ(incidents.size(), 1u);
    const FaultIncident& inc = incidents[0];
    EXPECT_EQ(inc.crashed_at, crashed_at);
    EXPECT_EQ(inc.detected_at, crashed_at);
    EXPECT_EQ(inc.detected_by, survivors.front());
    EXPECT_EQ(inc.takeover_at, crashed_at);
  }

  cluster.run_until(10 * kSecond);
  const SimTime restarted_at = cluster.sim().now();
  cluster.recover_mds(victim);
  EXPECT_FALSE(cluster.mds(victim).failed());
  EXPECT_FALSE(cluster.network().is_down(victim));
  for (MdsId i : survivors) EXPECT_TRUE(cluster.mds(i).peer_alive(victim)) << i;

  cluster.run_until(20 * kSecond);
  const FaultIncident& inc = cluster.fault_log().incidents()[0];
  EXPECT_EQ(inc.restarted_at, restarted_at);
  EXPECT_EQ(inc.remarked_up_at, restarted_at);
  ASSERT_TRUE(inc.has(inc.rejoined_at));
  EXPECT_GE(inc.rejoined_at, restarted_at);
  EXPECT_FALSE(inc.open);
  EXPECT_FALSE(cluster.mds(victim).recovering());
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_EQ(cluster.mds(i).cache().check_invariants(), "") << i;
  }
}

TEST(Failover, StaticSubtreeRestartedNodeKnowsWhichPeersAreStillDown) {
  ClusterSim cluster(no_heartbeat_config(StrategyKind::kStaticSubtree));
  cluster.run_until(5 * kSecond);
  auto* subtree = dynamic_cast<SubtreePartition*>(&cluster.partition());
  ASSERT_NE(subtree, nullptr);
  cluster.fail_mds(1);
  cluster.fail_mds(2);
  cluster.run_until(6 * kSecond);
  cluster.recover_mds(1);

  // MDS 1 now coordinates MDS 0's takeover; MDS 2 is still dead, so the
  // heirs are 1 and 3 in turn.
  const auto owned_before = subtree->delegations_of(0);
  ASSERT_FALSE(owned_before.empty());
  const std::vector<MdsId> survivors = {1, 3};
  cluster.fail_mds(0);
  for (std::size_t k = 0; k < owned_before.size(); ++k) {
    EXPECT_EQ(subtree->authority_of(owned_before[k]),
              survivors[k % survivors.size()])
        << k;
  }
  EXPECT_TRUE(subtree->delegations_of(2).empty());
  EXPECT_NE(subtree->authority_of(cluster.tree().root()), 2);
}

TEST(Failover, DirHashCrashIsDetectedButNeverTakenOver) {
  ClusterSim cluster(no_heartbeat_config(StrategyKind::kDirHash));
  cluster.run_until(5 * kSecond);
  const SimTime crashed_at = cluster.sim().now();
  cluster.fail_mds(1);
  cluster.run_until(12 * kSecond);

  const auto& incidents = cluster.fault_log().incidents();
  ASSERT_EQ(incidents.size(), 1u);
  const FaultIncident& inc = incidents[0];
  EXPECT_EQ(inc.detected_at, crashed_at);
  EXPECT_EQ(inc.detected_by, 0);
  // No hash range is re-mapped, so the dead node's share of the namespace
  // has no authority: there is no takeover, and the unavailability window
  // runs on to the present.
  EXPECT_FALSE(inc.has(inc.takeover_at));
  const SimTime now = cluster.sim().now();
  const Summary unavailable = cluster.fault_log().unavailability_seconds(now);
  ASSERT_EQ(unavailable.count(), 1u);
  EXPECT_DOUBLE_EQ(unavailable.mean(), to_seconds(now - crashed_at));
}

// --- fault calls the run state gives nothing to act on ------------------

TEST(Failover, RecoveringALiveMdsIsACountedNoOp) {
  ClusterSim cluster(failover_config());
  cluster.run_until(5 * kSecond);
  const std::size_t cached = cluster.mds(2).cache().size();
  ASSERT_GT(cached, 1u);
  cluster.recover_mds(2);
  EXPECT_EQ(cluster.mds(2).cache().size(), cached);
  EXPECT_FALSE(cluster.mds(2).recovering());
  EXPECT_TRUE(cluster.fault_log().incidents().empty());
  const auto& ignored = cluster.fault_log().ignored_faults();
  ASSERT_EQ(ignored.size(), 1u);
  EXPECT_EQ(ignored[0].node, 2);
  EXPECT_EQ(ignored[0].at, 5 * kSecond);
  EXPECT_EQ(ignored[0].reason, IgnoredFault::Reason::kRestartLive);
}

// A second crash of a dead MDS opens no phantom incident: the log keeps
// the one real crash, and its true detection latency.
TEST(Failover, CrashingADownMdsKeepsOneIncident) {
  ClusterSim cluster(failover_config());
  cluster.run_until(5 * kSecond);
  cluster.fail_mds(1);
  cluster.run_until(15 * kSecond);
  cluster.fail_mds(1);
  cluster.run_until(25 * kSecond);

  const FaultLog& log = cluster.fault_log();
  ASSERT_EQ(log.incidents().size(), 1u);
  const FaultIncident& inc = log.incidents()[0];
  EXPECT_EQ(inc.crashed_at, 5 * kSecond);
  ASSERT_TRUE(inc.has(inc.detected_at));
  const Summary detection =
      log.detection_latency_seconds(cluster.sim().now());
  ASSERT_EQ(detection.count(), 1u);
  EXPECT_DOUBLE_EQ(detection.mean(),
                   to_seconds(inc.detected_at - inc.crashed_at));
  EXPECT_LT(detection.mean(), 5.0);
  ASSERT_EQ(log.ignored_faults().size(), 1u);
  EXPECT_EQ(log.ignored_faults()[0].reason,
            IgnoredFault::Reason::kCrashDown);
  EXPECT_EQ(log.ignored_faults()[0].at, 15 * kSecond);
}

TEST(Failover, CrashingTheLastLiveMdsIsACountedNoOp) {
  SimConfig cfg = failover_config();
  cfg.num_mds = 2;
  ClusterSim cluster(cfg);
  cluster.run_until(5 * kSecond);
  cluster.fail_mds(1);
  cluster.run_until(8 * kSecond);
  cluster.fail_mds(0);
  EXPECT_FALSE(cluster.mds(0).failed());
  EXPECT_FALSE(cluster.network().is_down(0));
  EXPECT_EQ(cluster.fault_log().incidents().size(), 1u);
  const auto& ignored = cluster.fault_log().ignored_faults();
  ASSERT_EQ(ignored.size(), 1u);
  EXPECT_EQ(ignored[0].node, 0);
  EXPECT_EQ(ignored[0].reason, IgnoredFault::Reason::kCrashLastLive);
}

// --- fault API argument checks --------------------------------------------

SimConfig tiny_config(int num_mds) {
  SimConfig cfg = failover_config();
  cfg.num_mds = num_mds;
  cfg.num_clients = 8;
  cfg.fs.num_users = 4;
  cfg.fs.nodes_per_user = 50;
  return cfg;
}

TEST(FaultApi, RejectsMdsIdsOutsideTheCluster) {
  ClusterSim cluster(tiny_config(4));
  EXPECT_THROW(cluster.fail_mds(4), std::invalid_argument);
  EXPECT_THROW(cluster.fail_mds(-1), std::invalid_argument);
  EXPECT_THROW(cluster.recover_mds(7), std::invalid_argument);
  EXPECT_THROW(cluster.recover_mds(-1), std::invalid_argument);
  EXPECT_THROW(cluster.set_fail_slow(4, 2.0, 2.0), std::invalid_argument);
  EXPECT_THROW(cluster.set_fail_slow(-1, 2.0, 2.0), std::invalid_argument);
  cluster.run_until(kSecond);
  EXPECT_TRUE(cluster.fault_log().incidents().empty());
  EXPECT_TRUE(cluster.fault_log().fail_slow_incidents().empty());
  for (int i = 0; i < cluster.num_mds(); ++i) {
    EXPECT_FALSE(cluster.mds(i).failed()) << i;
  }
}

TEST(FaultApi, RejectsCrashingTheOnlyMds) {
  ClusterSim cluster(tiny_config(1));
  EXPECT_THROW(cluster.fail_mds(0), std::invalid_argument);
  // Slowing the only node leaves it up, so that is allowed.
  EXPECT_NO_THROW(cluster.set_fail_slow(0, 2.0, 1.0));
  EXPECT_FALSE(cluster.mds(0).failed());
}

TEST(FaultApi, RejectsShardedClusters) {
  SimConfig cfg = tiny_config(4);
  cfg.shards = 2;
  ClusterSim cluster(cfg);
  EXPECT_THROW(cluster.fail_mds(0), std::invalid_argument);
  EXPECT_THROW(cluster.recover_mds(0), std::invalid_argument);
  EXPECT_THROW(cluster.set_fail_slow(0, 2.0, 2.0), std::invalid_argument);
  FaultPlan plan;
  plan.cut_link(kSecond, 2 * kSecond, 0, 1);
  EXPECT_THROW(plan.arm(cluster), std::invalid_argument);
}

TEST(FaultApi, ArmChecksEveryTargetBeforeSchedulingAnything) {
  ClusterSim cluster(tiny_config(4));
  cluster.run_until(0);
  FaultPlan bad_restart;
  bad_restart.crash(kSecond, 1).restart(2 * kSecond, 9);
  EXPECT_THROW(bad_restart.arm(cluster), std::invalid_argument);
  FaultPlan bad_slow;
  bad_slow.crash(kSecond, 1).fail_slow(kSecond, 2 * kSecond, -1, 2.0, 2.0);
  EXPECT_THROW(bad_slow.arm(cluster), std::invalid_argument);
  // Neither plan scheduled its valid crash.
  cluster.run_until(3 * kSecond);
  EXPECT_FALSE(cluster.mds(1).failed());
  EXPECT_TRUE(cluster.fault_log().incidents().empty());

  ClusterSim single(tiny_config(1));
  single.run_until(0);
  FaultPlan crash_only;
  crash_only.crash(kSecond, 0);
  EXPECT_THROW(crash_only.arm(single), std::invalid_argument);
}

}  // namespace
}  // namespace mdsim

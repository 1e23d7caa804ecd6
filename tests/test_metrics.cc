#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "client/cohort.h"
#include "test_util.h"

namespace mdsim {
namespace {

SimConfig metrics_config() {
  SimConfig cfg;
  cfg.strategy = StrategyKind::kStaticSubtree;
  cfg.num_mds = 3;
  cfg.num_clients = 60;
  cfg.fs.num_users = 12;
  cfg.fs.nodes_per_user = 150;
  cfg.duration = 6 * kSecond;
  cfg.warmup = 2 * kSecond;
  cfg.sample_period = 500 * kMillisecond;
  return cfg;
}

TEST(Metrics, TimeSeriesSampledOnCadence) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  // 6s / 0.5s = 12 samples (+- boundary effects).
  EXPECT_NEAR(static_cast<double>(m.avg_throughput().points().size()), 12.0,
              2.0);
  EXPECT_EQ(m.per_mds_throughput().size(), 3u);
  for (const auto& series : m.per_mds_throughput()) {
    EXPECT_EQ(series.points().size(), m.avg_throughput().points().size());
  }
}

TEST(Metrics, AvgIsBetweenMinAndMax) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  const auto& avg = m.avg_throughput().points();
  const auto& mn = m.min_throughput().points();
  const auto& mx = m.max_throughput().points();
  ASSERT_EQ(avg.size(), mn.size());
  ASSERT_EQ(avg.size(), mx.size());
  for (std::size_t i = 0; i < avg.size(); ++i) {
    EXPECT_LE(mn[i].value, avg[i].value + 1e-9);
    EXPECT_LE(avg[i].value, mx[i].value + 1e-9);
  }
}

TEST(Metrics, ThroughputAggregatesMatchStats) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  const double avg = m.avg_mds_throughput(cluster.sim().now());
  // Cross-check against the time-series mean over the post-warmup window.
  const double series_mean =
      m.avg_throughput().mean_in(2 * kSecond + 1, ~SimTime{0});
  EXPECT_NEAR(avg, series_mean, avg * 0.25 + 1.0);
}

TEST(Metrics, ForwardFractionWithinBounds) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  EXPECT_GE(m.overall_forward_fraction(), 0.0);
  for (const auto& p : m.forward_fraction().points()) {
    EXPECT_GE(p.value, 0.0);
  }
}

TEST(Metrics, WarmupResetDropsEarlyCounts) {
  SimConfig cfg = metrics_config();
  ClusterSim with_warmup(cfg);
  with_warmup.run();
  cfg.warmup = 0;
  ClusterSim without(cfg);
  without.run();
  // Without a warmup reset, more replies are attributed to the window.
  EXPECT_GT(without.metrics().total_replies(),
            with_warmup.metrics().total_replies());
}

TEST(Metrics, AggregatesSafeExactlyAtWarmupBoundary) {
  // The warmup reset fires at t == warmup; querying the aggregates at that
  // instant means a zero-length window. Division guards must hold: no
  // div-by-zero, no negative deltas from the just-captured base_* counters.
  SimConfig cfg = metrics_config();
  ClusterSim cluster(cfg);
  cluster.run_until(cfg.warmup);
  Metrics& m = cluster.metrics();
  EXPECT_EQ(cluster.sim().now(), cfg.warmup);
  EXPECT_DOUBLE_EQ(m.avg_mds_throughput(cluster.sim().now()), 0.0);
  EXPECT_DOUBLE_EQ(m.cluster_hit_rate(), 0.0);
  EXPECT_EQ(m.total_replies(), 0u);
  EXPECT_EQ(m.total_failures(), 0u);
  EXPECT_EQ(m.client_latency().count(), 0u);
}

TEST(Metrics, PostWarmupDeltasCountEachReplyOnce) {
  // base_* subtraction must not double-count: replies seen in the full run
  // equal warmup-window replies plus post-warmup replies, measured on two
  // identically seeded clusters.
  SimConfig cfg = metrics_config();
  ClusterSim full(cfg);
  full.run();
  const std::uint64_t post_warmup = full.metrics().total_replies();
  SimConfig no_reset = cfg;
  no_reset.warmup = 0;
  ClusterSim whole(no_reset);
  ClusterSim warm_only(no_reset);
  whole.run();
  warm_only.run_until(cfg.warmup);
  EXPECT_EQ(warm_only.metrics().total_replies() + post_warmup,
            whole.metrics().total_replies());
}

// Metrics over a cohort's aggregate ClientStats (the sharded engine's
// shape): reset() zeroes the cohort's latency Summary and re-bases every
// node, so the aggregates count only replies sent after it.
TEST(Metrics, ResetOverCohortStatsCountsOnlyLaterReplies) {
  const SimConfig cfg = metrics_config();
  Simulation sim;
  Cell cell(sim, cfg);
  ClientCohort cohort(sim, *cell.net, cell.tree, *cell.workload,
                      *cell.partition, *cell.dirfrag, cfg.num_clients, 0,
                      cell.num_mds(), cfg.seed);
  cell.measure({&cohort.stats()});
  Metrics& m = *cell.metrics;
  auto replies_sent = [&cell]() {
    std::uint64_t n = 0;
    for (const auto& node : cell.mds_nodes) n += node->stats().replies_sent;
    return n;
  };

  cohort.start();
  sim.run_until(2 * kSecond);
  ASSERT_GT(cohort.stats().latency_seconds.count(), 0u);
  ASSERT_EQ(m.total_replies(), replies_sent());

  m.reset(sim.now());
  const std::uint64_t at_reset = replies_sent();
  EXPECT_EQ(cohort.stats().latency_seconds.count(), 0u);
  EXPECT_EQ(m.client_latency().count(), 0u);
  EXPECT_EQ(m.total_replies(), 0u);
  EXPECT_EQ(m.total_failures(), 0u);
  EXPECT_EQ(m.cluster_hit_rate(), 0.0);
  EXPECT_EQ(m.overall_forward_fraction(), 0.0);
  EXPECT_EQ(m.avg_mds_throughput(sim.now()), 0.0);

  sim.run_until(4 * kSecond);
  const std::uint64_t later = replies_sent() - at_reset;
  ASSERT_GT(later, 0u);
  EXPECT_EQ(m.total_replies(), later);
  EXPECT_DOUBLE_EQ(m.avg_mds_throughput(sim.now()),
                   static_cast<double>(later) / 2.0 / cfg.num_mds);
  EXPECT_EQ(m.client_latency().count(),
            cohort.stats().latency_seconds.count());
  EXPECT_GT(m.client_latency().count(), 0u);
}

// The series and the totals read the same cumulative counters: each
// sample is a counter's growth over its window, so per window a node's
// throughput times the window is its replies_sent growth, the forward
// fraction is forwards over first-hop requests, and over the post-warm-up
// samples the series add back up to the totals.
TEST(Metrics, SeriesAreCounterDeltasOfEachWindow) {
  SimConfig cfg = metrics_config();
  cfg.strategy = StrategyKind::kDynamicSubtree;  // forwards happen
  ClusterSim cluster(cfg);
  auto snapshot = [&cluster]() {
    std::vector<MdsStats> out;
    for (int i = 0; i < cluster.num_mds(); ++i) {
      out.push_back(cluster.mds(i).stats());
    }
    return out;
  };
  auto replies_of = [](double rate, SimTime window) {
    return static_cast<std::uint64_t>(
        std::llround(rate * to_seconds(window)));
  };

  cluster.run_until(cfg.warmup);  // the reset fires at the warm-up instant
  Metrics& m = cluster.metrics();
  const std::vector<MdsStats> at_reset = snapshot();
  std::vector<MdsStats> last = at_reset;
  std::uint64_t forwards = 0;
  for (SimTime t = cfg.warmup + cfg.sample_period; t <= cfg.duration;
       t += cfg.sample_period) {
    cluster.run_until(t);
    const std::vector<MdsStats> now = snapshot();
    std::uint64_t fwd = 0, first = 0;
    for (int i = 0; i < cluster.num_mds(); ++i) {
      const auto& p = m.per_mds_throughput()[static_cast<std::size_t>(i)]
                          .points()
                          .back();
      const auto k = static_cast<std::size_t>(i);
      ASSERT_EQ(p.time, t);
      EXPECT_EQ(replies_of(p.value, cfg.sample_period),
                now[k].replies_sent - last[k].replies_sent)
          << "mds " << i << " at " << to_seconds(t);
      fwd += now[k].forwards - last[k].forwards;
      first += now[k].first_hop_requests - last[k].first_hop_requests;
    }
    const double want =
        first > 0 ? static_cast<double>(fwd) / static_cast<double>(first)
                  : 0.0;
    EXPECT_NEAR(m.forward_fraction().points().back().value, want, 1e-12)
        << "at " << to_seconds(t);
    forwards += fwd;
    last = now;
  }
  EXPECT_GT(forwards, 0u);

  std::uint64_t replies = 0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    double sum = 0.0;
    for (const auto& p : m.per_mds_throughput()[k].points()) {
      if (p.time > cfg.warmup) sum += p.value;
    }
    const std::uint64_t post_reset =
        last[k].replies_sent - at_reset[k].replies_sent;
    EXPECT_GT(post_reset, 0u) << "mds " << i;
    EXPECT_EQ(replies_of(sum, cfg.sample_period), post_reset) << "mds " << i;
    replies += post_reset;
  }
  EXPECT_EQ(m.total_replies(), replies);
}

TEST(Metrics, ClientLatencyAggregated) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  const Summary lat = cluster.metrics().client_latency();
  EXPECT_GT(lat.count(), 100u);
  EXPECT_GT(lat.min(), 0.0);
  EXPECT_GE(lat.max(), lat.mean());
}

TEST(Metrics, PrefixFractionAndFillInRange) {
  ClusterSim cluster(metrics_config());
  cluster.run();
  Metrics& m = cluster.metrics();
  EXPECT_GE(m.mean_prefix_fraction(), 0.0);
  EXPECT_LE(m.mean_prefix_fraction(), 1.0);
  double fill = 0.0;
  for (int i = 0; i < cluster.num_mds(); ++i) {
    const MetadataCache& cache = cluster.mds(i).cache();
    fill += static_cast<double>(cache.size()) /
            static_cast<double>(cache.capacity());
  }
  fill /= cluster.num_mds();
  EXPECT_GT(fill, 0.0);
  EXPECT_LE(fill, 1.1);
}

}  // namespace
}  // namespace mdsim

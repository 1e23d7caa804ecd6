// Golden run results: run_one on a small single-engine configuration, one
// per strategy, pinned bit for bit. Any change to the event order, the
// RNG streams or the protocol moves at least one field, so a refactor
// that claims to keep the monolithic figures byte-identical must keep
// these values exactly. The doubles are hex-float literals: exact, with
// no decimal rounding in between.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/experiment.h"

namespace mdsim {
namespace {

SimConfig golden_config(StrategyKind strategy) {
  SimConfig cfg;
  cfg.strategy = strategy;
  cfg.num_mds = 3;
  cfg.num_clients = 60;
  cfg.seed = 11;
  cfg.fs.seed = 11;
  cfg.fs.num_users = 16;
  cfg.fs.nodes_per_user = 150;
  cfg.duration = 4 * kSecond;
  cfg.warmup = 1 * kSecond;
  return cfg;
}

struct Golden {
  StrategyKind strategy;
  double avg_mds_throughput;
  double hit_rate;
  double prefix_fraction;
  double forward_fraction;
  double mean_latency_ms;
  std::uint64_t replies;
  std::uint64_t failures;
};

constexpr Golden kGolden[] = {
    {StrategyKind::kDynamicSubtree,
     0x1.e0b8e38e38e39p+9, 0x1.ffbcca5d187eap-1,
     0x1.0d5b2a4101ee4p-3, 0x1.f5a5c947ba32p-5,
     0x1.b4d41f3692877p-2, 8653, 1321},
    {StrategyKind::kStaticSubtree,
     0x1.d62aaaaaaaaabp+9, 0x1.ffb8f0e10eb0dp-1,
     0x1.09e5c45000c0ep-3, 0x1.155365ba7cb01p-4,
     0x1.ae815c9e1d329p-2, 8463, 1391},
    {StrategyKind::kDirHash,
     0x1.d171c71c71c71p+9, 0x1.fd3c8758d69d3p-1,
     0x1.51e542e906dd1p-3, 0x1.94e7cb2fadd86p-6,
     0x1.13108840c3e74p-1, 8378, 854},
    {StrategyKind::kFileHash,
     0x1.ba71c71c71c71p+9, 0x1.f6de6c93a3108p-1,
     0x1.07545be5e53d7p-2, 0x1.7ad2208e0ecc3p-6,
     0x1.dd7028d685da4p+0, 7964, 765},
    {StrategyKind::kLazyHybrid,
     0x1.b5c71c71c71c7p+9, 0x1.d7792a785e8ffp-1,
     0x1.ffce49bb16cabp-8, 0x1.921985996443bp-6,
     0x1.10da627ddca22p+1, 7880, 15},
};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << strategy_name(g.strategy);
}

class RunGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(RunGolden, RunOneMatchesPinnedResultBitForBit) {
  const Golden& g = GetParam();
  const RunResult r = run_one(golden_config(g.strategy));
  EXPECT_EQ(r.avg_mds_throughput, g.avg_mds_throughput);
  EXPECT_EQ(r.hit_rate, g.hit_rate);
  EXPECT_EQ(r.prefix_fraction, g.prefix_fraction);
  EXPECT_EQ(r.forward_fraction, g.forward_fraction);
  EXPECT_EQ(r.mean_latency_ms, g.mean_latency_ms);
  EXPECT_EQ(r.replies, g.replies);
  EXPECT_EQ(r.failures, g.failures);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, RunGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(strategy_name(info.param.strategy));
    });

}  // namespace
}  // namespace mdsim

// Retry parity: ClientCohort runs one retry protocol
// (client/retry_policy.h) on two kinds of timer — exact engine events in a
// cohort of one, the 1 ms timer wheel in a larger cohort. Against
// identical servers — a black hole, an overload rejector, a too-slow
// replier — a wheel-timed client must produce the same attempt pattern,
// the same budget accounting, and the same pacing as an exact-timed one,
// within the wheel's quantization.
//
// The wheel side is a cohort of two whose second client never issues, so
// only client 0 sends traffic, drawing from the same stream as the exact
// side. Everything asserted here is jitter-independent (attempt
// sequences, budget counts) or bounded by the jitter interval plus the
// wheel's rounding (inter-arrival gaps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "client/cohort.h"
#include "client/retry_policy.h"
#include "fstree/generator.h"
#include "mds/dirfrag.h"
#include "mds/messages.h"
#include "net/network.h"
#include "strategy/partition.h"
#include "workload/workload.h"

namespace mdsim {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr SimTime kLatency = from_micros(100);
/// The wheel uses millisecond buckets, rounding each timer up by
/// < 1 ms; a retry chains two timers (timeout, then backoff), so 3 ms
/// absorbs the quantization with margin without weakening the gap bounds.
constexpr SimTime kSlack = 3 * kMillisecond;

/// Client 0 stats the same file forever with a fixed think time: no RNG
/// draws, so the op stream is identical under both timer kinds. Every
/// other client is done from the start.
struct FixedWorkload final : Workload {
  FsNode* target = nullptr;
  /// Large against the cohort wheel's 1 ms buckets, so quantization
  /// stretches a cycle by a few percent, not a factor.
  SimTime think = 10 * kMillisecond;
  SimTime next(ClientId id, SimTime, Rng&, Operation* out) override {
    if (id != 0) return kNever;
    out->op = OpType::kStat;
    out->target = target;
    return think;
  }
  std::string name() const override { return "fixed"; }
};

struct Arrival {
  SimTime at = 0;
  std::uint8_t attempt = 0;
  std::uint64_t req_id = 0;
};

/// Records every request and never answers: sustained timeouts.
struct Blackhole : NetEndpoint {
  Simulation* sim = nullptr;
  Network* net = nullptr;
  NetAddr addr = kInvalidAddr;
  std::vector<Arrival> arrivals;

  void on_message(NetAddr, MessagePtr msg) override {
    if (msg->type != MsgType::kClientRequest) return;
    auto& m = static_cast<ClientRequestMsg&>(*msg);
    arrivals.push_back({sim->now(), m.attempt, m.req_id});
    answer(m);
  }
  virtual void answer(const ClientRequestMsg&) {}
};

/// Rejects everything immediately with a fixed retry_after hint.
struct Rejector final : Blackhole {
  SimTime retry_after = 40 * kMillisecond;
  void answer(const ClientRequestMsg& m) override {
    auto reply = std::make_unique<ClientReplyMsg>();
    reply->req_id = m.req_id;
    reply->success = false;
    reply->rejected = true;
    reply->retry_after = retry_after;
    net->send(addr, m.client_addr, std::move(reply));
  }
};

/// Succeeds, but only after the client has already timed out and
/// re-issued: every reply must land in the stale branch.
struct SlowReplier final : Blackhole {
  SimTime delay = 250 * kMillisecond;
  void answer(const ClientRequestMsg& m) override {
    sim->schedule(delay, [this, id = m.req_id, to = m.client_addr]() {
      auto reply = std::make_unique<ClientReplyMsg>();
      reply->req_id = id;
      reply->success = true;
      net->send(addr, to, std::move(reply));
    });
  }
};

struct RunOutcome {
  ClientStats stats;
  std::vector<Arrival> arrivals;
};

/// Build a one-server world around `server` with one active client and
/// run it. The server attaches first, taking address 0 — where a
/// num_mds=1 client sends everything — and `wheel` selects a cohort of
/// two (wheel timers) over a cohort of one (exact timers).
template <typename Server>
RunOutcome run_world(bool wheel, const ClientRetryParams& rp,
                     SimTime horizon) {
  Simulation sim;
  NetworkParams np;
  np.base_latency = kLatency;
  np.jitter_mean = 0;
  Network net(sim, np);

  FsTree tree;
  NamespaceParams fs;
  fs.seed = kSeed;
  fs.num_users = 4;
  fs.nodes_per_user = 60;
  generate_namespace(tree, fs);
  auto partition = make_partitioner(StrategyKind::kDynamicSubtree, 1, tree);
  DirFragRegistry dirfrag(1, 6);
  FixedWorkload workload;
  workload.target = tree.files().front();

  Server server;
  server.sim = &sim;
  server.net = &net;
  server.addr = net.attach(&server);
  EXPECT_EQ(server.addr, 0);

  ClientCohort co(sim, net, tree, workload, *partition, dirfrag,
                  /*count=*/wheel ? 2 : 1, /*first_id=*/0, /*num_mds=*/1,
                  kSeed);
  co.set_retry_policy(rp);
  co.start();
  sim.run_until(horizon);
  RunOutcome out;
  out.stats = co.stats();
  out.arrivals = server.arrivals;
  return out;
}

ClientRetryParams tight_policy() {
  ClientRetryParams rp;
  rp.request_timeout = 100 * kMillisecond;
  rp.backoff_base = 50 * kMillisecond;
  rp.backoff_cap = 200 * kMillisecond;
  return rp;
}

/// Backoff window before re-issue number `attempt` (matches
/// retry_backoff_delay's exponential-with-cap shape).
SimTime backoff_ceiling(const ClientRetryParams& rp, int attempt) {
  SimTime d = rp.backoff_base << (attempt - 1 < 6 ? attempt - 1 : 6);
  return d > rp.backoff_cap ? rp.backoff_cap : d;
}

/// The attempt sequences must agree exactly on their common prefix: the
/// pattern is pure protocol state, independent of either RNG stream.
void expect_same_attempt_pattern(const RunOutcome& a, const RunOutcome& b) {
  const std::size_t n = std::min(a.arrivals.size(), b.arrivals.size());
  ASSERT_GT(n, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.arrivals[i].attempt, b.arrivals[i].attempt) << "arrival " << i;
  }
  // Jitter and wheel quantization (< 1 ms per timer) stretch the
  // wheel side's cycles slightly, so the horizon cuts the two runs off a few
  // percent apart — proportionally for fast cycles, a handful for slow.
  const std::size_t diff = a.arrivals.size() > b.arrivals.size()
                               ? a.arrivals.size() - b.arrivals.size()
                               : b.arrivals.size() - a.arrivals.size();
  EXPECT_LE(diff, std::max<std::size_t>(4, n / 2));
}

TEST(RetryParity, SustainedTimeoutsSpendTheBudgetIdentically) {
  ClientRetryParams rp = tight_policy();
  rp.budget.enabled = true;
  rp.budget.ratio = 0.1;
  rp.budget.cap = 3.0;
  const SimTime horizon = 3 * kSecond;
  const RunOutcome exact = run_world<Blackhole>(false, rp, horizon);
  const RunOutcome wheel = run_world<Blackhole>(true, rp, horizon);

  for (const RunOutcome* r : {&exact, &wheel}) {
    ASSERT_GE(r->arrivals.size(), 8u);
    // One op burns the whole budget (attempts 1..3), then every fresh op
    // fails fast on its first timeout: 0,1,2,3,0,0,0,...
    for (std::size_t i = 0; i < r->arrivals.size(); ++i) {
      EXPECT_EQ(r->arrivals[i].attempt, i < 4 ? i : 0u) << "arrival " << i;
    }
    // Re-issue pacing: timeout plus jittered backoff in [d/2, d).
    for (std::size_t i = 1; i < 4; ++i) {
      const SimTime gap = r->arrivals[i].at - r->arrivals[i - 1].at;
      const SimTime d =
          backoff_ceiling(rp, static_cast<int>(r->arrivals[i].attempt));
      EXPECT_GE(gap, rp.request_timeout + d / 2);
      EXPECT_LE(gap, rp.request_timeout + d + kSlack);
    }
    // Budget accounting: exactly cap tokens were ever spent; every later
    // timeout was suppressed, and each suppression failed one op.
    EXPECT_EQ(r->stats.retries - r->stats.retries_suppressed, 3u);
    EXPECT_EQ(r->stats.ops_failed, r->stats.retries_suppressed);
    EXPECT_GT(r->stats.retries_suppressed, 0u);
    EXPECT_EQ(r->stats.ops_completed, 0u);
    EXPECT_EQ(r->stats.stale_replies, 0u);
  }
  expect_same_attempt_pattern(exact, wheel);
}

TEST(RetryParity, WithoutBudgetBothRetryForever) {
  ClientRetryParams rp = tight_policy();  // budget disabled
  const SimTime horizon = 2 * kSecond;
  const RunOutcome exact = run_world<Blackhole>(false, rp, horizon);
  const RunOutcome wheel = run_world<Blackhole>(true, rp, horizon);

  for (const RunOutcome* r : {&exact, &wheel}) {
    ASSERT_GE(r->arrivals.size(), 5u);
    // One op, attempts strictly increasing: never abandoned.
    for (std::size_t i = 0; i < r->arrivals.size(); ++i) {
      EXPECT_EQ(r->arrivals[i].attempt, i);
    }
    EXPECT_EQ(r->stats.ops_failed, 0u);
    EXPECT_EQ(r->stats.retries_suppressed, 0u);
    // Each arrival after the first was preceded by one timeout; one more
    // timeout may be pending its backoff at the horizon.
    EXPECT_GE(r->stats.retries + 1, r->arrivals.size());
    EXPECT_LE(r->stats.retries, r->arrivals.size());
  }
  expect_same_attempt_pattern(exact, wheel);
}

TEST(RetryParity, RejectedRepliesHonorRetryAfterWithJitter) {
  ClientRetryParams rp = tight_policy();
  rp.budget.enabled = true;
  rp.budget.ratio = 0.1;
  rp.budget.cap = 3.0;
  const SimTime horizon = 2 * kSecond;
  const RunOutcome exact = run_world<Rejector>(false, rp, horizon);
  const RunOutcome wheel = run_world<Rejector>(true, rp, horizon);
  const SimTime retry_after = Rejector{}.retry_after;

  for (const RunOutcome* r : {&exact, &wheel}) {
    ASSERT_GE(r->arrivals.size(), 8u);
    // Same budget pattern as timeouts, but the cycle is driven by fast
    // rejections, not timeout expiry: no retries, only rejected replies.
    for (std::size_t i = 0; i < r->arrivals.size(); ++i) {
      EXPECT_EQ(r->arrivals[i].attempt, i < 4 ? i : 0u) << "arrival " << i;
    }
    for (std::size_t i = 1; i < 4; ++i) {
      // Round trip + server hint + up to 50% de-synchronizing jitter.
      const SimTime gap = r->arrivals[i].at - r->arrivals[i - 1].at;
      EXPECT_GE(gap, 2 * kLatency + retry_after);
      EXPECT_LE(gap, 2 * kLatency + retry_after + retry_after / 2 + kSlack);
    }
    EXPECT_EQ(r->stats.retries, 0u);
    EXPECT_GT(r->stats.rejected_replies, 0u);
    const std::uint64_t diff =
        r->stats.rejected_replies > r->arrivals.size()
            ? r->stats.rejected_replies - r->arrivals.size()
            : r->arrivals.size() - r->stats.rejected_replies;
    EXPECT_LE(diff, 1u);  // at most one rejection still in flight
    EXPECT_EQ(r->stats.ops_failed, r->stats.retries_suppressed);
    EXPECT_EQ(r->stats.ops_ok, 0u);
  }
  expect_same_attempt_pattern(exact, wheel);
}

TEST(RetryParity, LateRepliesAfterReissueAreDiscardedAsStale) {
  ClientRetryParams rp = tight_policy();
  rp.budget.enabled = true;
  rp.budget.ratio = 0.1;
  rp.budget.cap = 2.0;
  const SimTime horizon = 3 * kSecond;
  // Replies arrive 250 ms after each request: past the timeout (100 ms)
  // plus any backoff (< 100 ms here), so the re-issue — under a fresh
  // req_id — always wins the race and the reply is stale on arrival.
  const RunOutcome exact = run_world<SlowReplier>(false, rp, horizon);
  const RunOutcome wheel = run_world<SlowReplier>(true, rp, horizon);

  for (const RunOutcome* r : {&exact, &wheel}) {
    EXPECT_GT(r->stats.stale_replies, 0u);
    EXPECT_EQ(r->stats.ops_ok, 0u);
    EXPECT_EQ(r->stats.ops_completed, 0u);
    EXPECT_EQ(r->stats.retries - r->stats.retries_suppressed, 2u);
    // Every delivered reply was stale (the last few may still be in
    // flight at the horizon).
    EXPECT_LE(r->stats.stale_replies, r->arrivals.size());
    EXPECT_GE(r->stats.stale_replies + 3, r->arrivals.size());
  }
  expect_same_attempt_pattern(exact, wheel);
}

}  // namespace
}  // namespace mdsim

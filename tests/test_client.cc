#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "client/cohort.h"
#include "client/location_cache.h"
#include "fstree/generator.h"
#include "mds/dirfrag.h"
#include "net/network.h"
#include "strategy/partition.h"
#include "workload/workload.h"

namespace mdsim {
namespace {

class LocationCacheTest : public ::testing::Test {
 protected:
  LocationCacheTest() {
    a = tree.mkdir(tree.root(), "a");
    b = tree.mkdir(a, "b");
    f = tree.create_file(b, "f");
  }

  LocationHint hint(InodeId ino, MdsId auth, bool everywhere = false) {
    LocationHint h;
    h.ino = ino;
    h.authority = auth;
    h.replicated_everywhere = everywhere;
    return h;
  }

  FsTree tree;
  FsNode* a;
  FsNode* b;
  FsNode* f;
  Rng rng{5};
};

TEST_F(LocationCacheTest, UnknownTargetsGoToRandomNodes) {
  LocationCache c;
  std::map<MdsId, int> counts;
  for (int i = 0; i < 4000; ++i) ++counts[c.resolve(f, rng, 4)];
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [mds, count] : counts) {
    EXPECT_GT(mds, -1);
    EXPECT_NEAR(count, 1000, 150);
  }
}

TEST_F(LocationCacheTest, DeepestKnownPrefixWins) {
  LocationCache c;
  c.learn({hint(tree.root()->ino(), 0), hint(a->ino(), 1)});
  EXPECT_EQ(c.resolve(f, rng, 4), 1);
  c.learn({hint(b->ino(), 2)});
  EXPECT_EQ(c.resolve(f, rng, 4), 2);
  c.learn({hint(f->ino(), 3)});
  EXPECT_EQ(c.resolve(f, rng, 4), 3);
  // Siblings of f still resolve through b.
  FsNode* g = tree.create_file(b, "g");
  EXPECT_EQ(c.resolve(g, rng, 4), 2);
}

TEST_F(LocationCacheTest, ReplicatedPrefixScattersRequests) {
  LocationCache c;
  c.learn({hint(b->ino(), 1, /*everywhere=*/true)});
  std::map<MdsId, int> counts;
  for (int i = 0; i < 4000; ++i) ++counts[c.resolve(f, rng, 4)];
  EXPECT_EQ(counts.size(), 4u);  // spread over all nodes
}

TEST_F(LocationCacheTest, NewerHintsOverwrite) {
  LocationCache c;
  c.learn({hint(b->ino(), 1)});
  EXPECT_EQ(c.resolve(f, rng, 4), 1);
  c.learn({hint(b->ino(), 3)});  // subtree migrated
  EXPECT_EQ(c.resolve(f, rng, 4), 3);
  ASSERT_NE(c.hint_for(b->ino()), nullptr);
  EXPECT_EQ(c.hint_for(b->ino())->authority, 3);
}

TEST_F(LocationCacheTest, CapacityBounded) {
  LocationCache c(10);
  std::vector<LocationHint> hints;
  for (InodeId i = 100; i < 200; ++i) hints.push_back(hint(i, 0));
  c.learn(hints);
  EXPECT_LE(c.size(), 10u);
}

TEST_F(LocationCacheTest, StaleKnowledgeStillResolvesSomewhereValid) {
  LocationCache c;
  c.learn({hint(a->ino(), 2)});
  // The file is renamed far away; resolution by old ancestry still returns
  // a valid node (the cluster will forward) — client code never breaks.
  FsNode* elsewhere = tree.mkdir(tree.root(), "elsewhere");
  ASSERT_TRUE(tree.rename(f, elsewhere, "moved"));
  const MdsId m = c.resolve(f, rng, 4);
  EXPECT_GE(m, 0);
  EXPECT_LT(m, 4);
}

// --- cohort timers --------------------------------------------------------

/// Client 0 thinks once for 10.3 ms — off every millisecond boundary —
/// then issues one stat and is done; every other client never issues.
struct OneShotWorkload final : Workload {
  FsNode* target = nullptr;
  bool issued = false;
  SimTime next(ClientId id, SimTime, Rng&, Operation* out) override {
    if (id != 0 || issued) return kNever;
    issued = true;
    out->op = OpType::kStat;
    out->target = target;
    return from_micros(10300);
  }
  std::string name() const override { return "one-shot"; }
};

/// Records when each request reaches it; never answers.
struct ArrivalLog final : NetEndpoint {
  Simulation* sim = nullptr;
  std::vector<SimTime> arrivals;
  void on_message(NetAddr, MessagePtr msg) override {
    if (msg->type == MsgType::kClientRequest) arrivals.push_back(sim->now());
  }
};

/// Send instant of client 0's think-timed request in a cohort of `count`.
SimTime think_fire_time(int count) {
  Simulation sim;
  NetworkParams np;
  np.base_latency = from_micros(100);
  np.jitter_mean = 0;
  Network net(sim, np);
  FsTree tree;
  NamespaceParams fs;
  fs.num_users = 2;
  fs.nodes_per_user = 40;
  generate_namespace(tree, fs);
  auto partition = make_partitioner(StrategyKind::kDynamicSubtree, 1, tree);
  DirFragRegistry dirfrag(1, 6);
  OneShotWorkload workload;
  workload.target = tree.files().front();
  ArrivalLog server;
  server.sim = &sim;
  EXPECT_EQ(net.attach(&server), 0);

  ClientCohort cohort(sim, net, tree, workload, *partition, dirfrag, count,
                      /*first_id=*/0, /*num_mds=*/1, /*seed=*/3);
  cohort.start();
  sim.run_until(20 * kMillisecond);
  EXPECT_EQ(server.arrivals.size(), 1u);
  EXPECT_EQ(cohort.stats().ops_issued, 1u);
  return server.arrivals.empty() ? 0 : server.arrivals[0] - np.base_latency;
}

TEST(ClientCohortTimers, CohortOfOneFiresThinkTimerAtExactDueTime) {
  EXPECT_EQ(think_fire_time(1), from_micros(10300));
}

TEST(ClientCohortTimers, LargerCohortFiresAtNextMillisecondBoundary) {
  EXPECT_EQ(think_fire_time(2), 11 * kMillisecond);
}

}  // namespace
}  // namespace mdsim

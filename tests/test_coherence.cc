// Cache-coherence protocol details (paper section 4.2) and the dirfrag
// registry's hashing properties.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_util.h"

namespace mdsim {
namespace {

TEST(DirFragRegistry, DentryAuthorityDeterministicAndSpread) {
  DirFragRegistry reg(8, 6);
  std::map<MdsId, int> counts;
  for (int i = 0; i < 4000; ++i) {
    const std::string name = "entry" + std::to_string(i);
    const MdsId a = reg.dentry_authority(42, name);
    EXPECT_EQ(a, reg.dentry_authority(42, name));  // deterministic
    ASSERT_GE(a, 0);
    ASSERT_LT(a, 8);
    ++counts[a];
  }
  // All nodes get a reasonable share of a fragmented directory.
  for (const auto& [mds, n] : counts) {
    EXPECT_GT(n, 250) << "mds " << mds;
  }
  // Different directories map the same name differently (ino-seeded).
  int moved = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string name = "entry" + std::to_string(i);
    if (reg.dentry_authority(42, name) != reg.dentry_authority(43, name)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 50);
}

TEST(DirFragRegistry, FragmentUnfragmentLifecycle) {
  DirFragRegistry reg(4, 6);
  EXPECT_FALSE(reg.is_fragmented(7));
  reg.fragment(7, /*home=*/0, /*giga=*/false, /*by_size=*/false,
               /*child_count=*/0, /*seed_temp=*/0.0, /*now=*/0,
               /*half_life=*/kSecond);
  EXPECT_TRUE(reg.is_fragmented(7));
  EXPECT_EQ(reg.fragmented_count(), 1u);
  reg.unfragment(7);
  EXPECT_FALSE(reg.is_fragmented(7));
  EXPECT_EQ(reg.fragmented_count(), 0u);
  reg.unfragment(7);  // idempotent
}

class CoherenceTest : public ::testing::Test {
 protected:
  void build(StrategyKind k = StrategyKind::kDirHash) {
    cluster = std::make_unique<ClusterSim>(manual_config(k));
    client.attach(*cluster);
  }
  void run_for(SimTime dt) { cluster->run_until(cluster->sim().now() + dt); }

  /// Serve a stat for `f` at its authority so prefix replicas appear at
  /// the serving node; returns the (replica dir, its authority) pair of
  /// the deepest cross-node prefix, or {nullptr, -1}.
  std::pair<FsNode*, MdsId> make_prefix_replica(FsNode* f) {
    const MdsId auth = cluster->mds(0).authority_for(f);
    client.send(auth, OpType::kStat, f);
    run_for(kSecond);
    FsNode* repl = nullptr;
    MdsId repl_auth = kInvalidMds;
    for (FsNode* a : f->ancestry()) {
      if (a == f) continue;
      const MdsId a_auth = cluster->mds(0).authority_for(a);
      if (a_auth != auth && a->depth() >= 1) {
        repl = a;
        repl_auth = a_auth;
      }
    }
    return {repl, repl_auth};
  }

  std::unique_ptr<ClusterSim> cluster;
  TestClient client;
};

TEST_F(CoherenceTest, AnchoredReplicaIsRefreshedNotDropped) {
  build();
  FsNode* f = find_world_readable_file(cluster->tree());
  ASSERT_NE(f, nullptr);
  auto [repl, repl_auth] = make_prefix_replica(f);
  if (repl == nullptr) GTEST_SKIP() << "no cross-node prefix";
  const MdsId holder = cluster->mds(0).authority_for(f);
  CacheEntry* e = cluster->mds(holder).cache().peek(repl->ino());
  ASSERT_NE(e, nullptr);
  ASSERT_FALSE(e->authoritative);
  ASSERT_GT(e->cached_children, 0u);  // it anchors the cached file

  // Update the dir at its authority; the anchored replica must be
  // refreshed to the new version (it cannot be dropped while anchoring).
  client.send(repl_auth, OpType::kSetattr, repl);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  e = cluster->mds(holder).cache().peek(repl->ino());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, repl->inode().version);
  // ...and it is still registered for future invalidations.
  EXPECT_GE(cluster->mds(repl_auth).replica_holders(repl->ino()), 1u);
}

TEST_F(CoherenceTest, EvictionSendsReplicaDropAndDeregisters) {
  // Tiny caches force replica eviction; the authority must forget the
  // holder (section 4.2: "it will notify the authority").
  SimConfig cfg = manual_config(StrategyKind::kDirHash);
  cfg.mds.cache_capacity = 64;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);

  FsNode* f = find_world_readable_file(cluster->tree());
  ASSERT_NE(f, nullptr);
  auto [repl, repl_auth] = make_prefix_replica(f);
  if (repl == nullptr) GTEST_SKIP() << "no cross-node prefix";
  const std::size_t holders_before =
      cluster->mds(repl_auth).replica_holders(repl->ino());
  ASSERT_GE(holders_before, 1u);

  // Flood the holder with stats of unrelated files to churn its cache.
  const MdsId holder = cluster->mds(0).authority_for(f);
  int sent = 0;
  for (FsNode* other : cluster->tree().files()) {
    if (cluster->mds(0).authority_for(other) != holder) continue;
    if (FsTree::is_ancestor_of(repl, other)) continue;
    client.send(holder, OpType::kStat, other);
    if (++sent >= 300) break;
  }
  run_for(5 * kSecond);
  if (cluster->mds(holder).cache().peek(repl->ino()) != nullptr) {
    GTEST_SKIP() << "replica survived the churn (still anchored)";
  }
  EXPECT_EQ(cluster->mds(repl_auth).replica_holders(repl->ino()), 0u);
}

TEST_F(CoherenceTest, UnsolicitedGrantMarksReplicatedAtReceiver) {
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.replication_threshold = 15.0;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);
  FsNode* f = find_world_readable_file(cluster->tree());
  ASSERT_NE(f, nullptr);
  const MdsId auth = cluster->mds(0).authority_for(f);
  for (int i = 0; i < 40; ++i) {
    client.send(auth, OpType::kStat, f);
    run_for(2 * kMillisecond);
  }
  run_for(100 * kMillisecond);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_TRUE(cluster->mds(i).is_replicated_everywhere(f->ino())) << i;
    // And every receiver anchored the pushed item under a valid chain.
    EXPECT_EQ(cluster->mds(i).cache().check_invariants(), "") << i;
  }
}

TEST_F(CoherenceTest, UnlinkInvalidationRemovesChildlessReplicas) {
  build(StrategyKind::kDynamicSubtree);
  // Create a file, replicate it via traffic control, then unlink it: every
  // childless replica must vanish.
  SimConfig cfg = manual_config(StrategyKind::kDynamicSubtree);
  cfg.mds.replication_threshold = 15.0;
  cluster = std::make_unique<ClusterSim>(cfg);
  client.attach(*cluster);
  FsNode* dir = cluster->namespace_info().user_roots[0];
  const MdsId dauth = cluster->mds(0).authority_for(dir);
  client.send(dauth, OpType::kCreate, dir, "hot_then_gone");
  run_for(kSecond);
  FsNode* f = dir->child("hot_then_gone");
  ASSERT_NE(f, nullptr);
  const InodeId ino = f->ino();
  const MdsId fauth = cluster->mds(0).authority_for(f);
  for (int i = 0; i < 40; ++i) {
    client.send(fauth, OpType::kStat, f, "", nullptr,
                dir->inode().perms.uid);
    run_for(2 * kMillisecond);
  }
  run_for(100 * kMillisecond);
  int holders = 0;
  for (int i = 0; i < cluster->num_mds(); ++i) {
    if (cluster->mds(i).cache().peek(ino) != nullptr) ++holders;
  }
  ASSERT_GT(holders, 1);

  client.send(fauth, OpType::kUnlink, f, "", nullptr,
              dir->inode().perms.uid);
  run_for(kSecond);
  ASSERT_TRUE(client.last().success);
  for (int i = 0; i < cluster->num_mds(); ++i) {
    EXPECT_EQ(cluster->mds(i).cache().peek(ino), nullptr) << i;
  }
}

TEST_F(CoherenceTest, SubtreeInvalidationDropsTombstonesAndRenamedIn) {
  build(StrategyKind::kDynamicSubtree);
  FsTree& tree = cluster->tree();
  FsNode* home = cluster->namespace_info().user_roots[0];
  FsNode* moved = tree.mkdir(home, "moved");
  FsNode* sub = tree.mkdir(moved, "sub");
  FsNode* gone = tree.create_file(sub, "gone");
  FsNode* elsewhere = tree.mkdir(home, "elsewhere");
  FsNode* renamed_in = tree.create_file(elsewhere, "x");
  FsNode* sibling = tree.mkdir(home, "sibling");
  FsNode* keep = tree.create_file(sibling, "keep");

  // MDS 1 holds replicas of all of it, prefixes included.
  const MdsId holder = 1;
  MetadataCache& cache = cluster->mds(holder).cache();
  const SimTime now = cluster->sim().now();
  for (FsNode* leaf : {gone, renamed_in, keep}) {
    for (FsNode* a : leaf->ancestry()) {
      cache.insert(a, InsertKind::kPrefix, /*authoritative=*/false, now);
    }
  }
  ASSERT_TRUE(tree.remove(gone));  // cached tombstone under `sub`
  ASSERT_TRUE(tree.rename(renamed_in, sub, "x"));

  auto inv = std::make_unique<CacheInvalidateMsg>();
  inv->ino = moved->ino();
  inv->whole_subtree = true;
  inv->epoch = cluster->mds(holder).view_epoch();
  cluster->network().send(0, holder, std::move(inv));
  run_for(kSecond);

  EXPECT_EQ(cache.peek(gone->ino()), nullptr);
  EXPECT_EQ(cache.peek(renamed_in->ino()), nullptr);
  EXPECT_EQ(cache.peek(sub->ino()), nullptr);
  EXPECT_NE(cache.peek(sibling->ino()), nullptr);
  EXPECT_NE(cache.peek(keep->ino()), nullptr);
  EXPECT_NE(cache.peek(elsewhere->ino()), nullptr);
  EXPECT_EQ(cache.check_invariants(), "");
}

}  // namespace
}  // namespace mdsim

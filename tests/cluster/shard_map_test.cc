#include "src/cluster/shard_map.h"

#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace libra::cluster {
namespace {

TEST(ShardMapTest, SameSpecSamePlacement) {
  ShardMapOptions opt;
  opt.num_nodes = 5;
  opt.shards_per_tenant = 16;
  ShardMap a(opt);
  ShardMap b(opt);
  for (uint32_t tenant = 0; tenant < 20; ++tenant) {
    EXPECT_EQ(a.Assignment(tenant), b.Assignment(tenant)) << tenant;
  }
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.SlotOfKey(key), b.SlotOfKey(key));
    EXPECT_EQ(a.NodeOfKey(7, key), b.NodeOfKey(7, key));
  }
}

TEST(ShardMapTest, SeedChangesPlacement) {
  ShardMapOptions opt;
  opt.num_nodes = 8;
  opt.shards_per_tenant = 64;
  ShardMap a(opt);
  opt.seed ^= 1;
  ShardMap b(opt);
  int moved = 0;
  for (int s = 0; s < opt.shards_per_tenant; ++s) {
    if (a.HomeOf(1, s) != b.HomeOf(1, s)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, 0);
}

// The default ring (kVnodesPerNode points per node, the default seed) pins
// every placement: a change to the ring construction or its hashing moves
// tenants between nodes, which determinism checks alone would not notice.
TEST(ShardMapTest, DefaultPlacementIsPinned) {
  ShardMapOptions opt;
  opt.num_nodes = 4;
  opt.shards_per_tenant = 8;
  opt.replication_factor = 2;
  ShardMap map(opt);
  // kWant[tenant][slot] = {home, follower}.
  constexpr int kWant[4][8][2] = {
      {{0, 2}, {0, 2}, {2, 3}, {3, 1}, {2, 3}, {0, 1}, {1, 2}, {0, 1}},
      {{2, 3}, {2, 1}, {0, 2}, {1, 0}, {0, 2}, {0, 1}, {2, 0}, {1, 0}},
      {{2, 0}, {3, 1}, {2, 0}, {1, 2}, {1, 3}, {0, 1}, {3, 0}, {3, 0}},
      {{2, 3}, {3, 1}, {3, 0}, {2, 3}, {2, 0}, {1, 0}, {0, 1}, {3, 2}},
  };
  for (uint32_t tenant = 0; tenant < 4; ++tenant) {
    for (int s = 0; s < opt.shards_per_tenant; ++s) {
      const int* want = kWant[tenant][s];
      EXPECT_EQ(map.HomeOf(tenant, s), want[0]) << tenant << "/" << s;
      EXPECT_EQ(map.ReplicasOf(tenant, s),
                (std::vector<int>{want[0], want[1]}))
          << tenant << "/" << s;
    }
  }
}

TEST(ShardMapTest, PlacementsInRangeAndCoverEveryNode) {
  ShardMapOptions opt;
  opt.num_nodes = 4;
  opt.shards_per_tenant = 8;
  ShardMap map(opt);
  std::map<int, int> hits;
  for (uint32_t tenant = 0; tenant < 64; ++tenant) {
    for (int s = 0; s < opt.shards_per_tenant; ++s) {
      const int node = map.HomeOf(tenant, s);
      ASSERT_GE(node, 0);
      ASSERT_LT(node, opt.num_nodes);
      ++hits[node];
    }
  }
  // With 512 placements over 4 nodes and 64 vnodes each, every node should
  // home something.
  EXPECT_EQ(hits.size(), static_cast<size_t>(opt.num_nodes));
}

TEST(ShardMapTest, SlotsPerNodeMatchesAssignment) {
  ShardMap map(ShardMapOptions{});
  const auto assignment = map.Assignment(3);
  const auto per_node = map.SlotsPerNode(3);
  int total = 0;
  for (const int count : per_node) {
    total += count;
  }
  EXPECT_EQ(total, map.shards_per_tenant());
  for (int s = 0; s < map.shards_per_tenant(); ++s) {
    EXPECT_GT(per_node[assignment[s]], 0);
  }
}

TEST(ShardMapTest, RehomeOverridesRing) {
  ShardMap map(ShardMapOptions{});
  const int slot = 2;
  const int original = map.HomeOf(9, slot);
  const int target = (original + 1) % map.num_nodes();
  map.Rehome(9, slot, target);
  EXPECT_EQ(map.HomeOf(9, slot), target);
  EXPECT_EQ(map.num_overrides(), 1u);
  // Other slots and tenants are untouched.
  EXPECT_EQ(map.HomeOf(9, (slot + 1) % map.shards_per_tenant()),
            ShardMap(ShardMapOptions{}).HomeOf(
                9, (slot + 1) % map.shards_per_tenant()));
  EXPECT_EQ(map.HomeOf(10, slot), ShardMap(ShardMapOptions{}).HomeOf(10, slot));
  // NodeOfKey follows the override for keys in the slot.
  for (int i = 0; i < 1000; ++i) {
    const std::string key = std::string("k").append(std::to_string(i));
    if (map.SlotOfKey(key) == slot) {
      EXPECT_EQ(map.NodeOfKey(9, key), target);
    }
  }
}

TEST(ShardMapTest, KeysSpreadAcrossSlots) {
  ShardMap map(ShardMapOptions{});
  std::map<int, int> slot_hits;
  for (int i = 0; i < 4096; ++i) {
    ++slot_hits[map.SlotOfKey("object-" + std::to_string(i))];
  }
  EXPECT_EQ(slot_hits.size(), static_cast<size_t>(map.shards_per_tenant()));
}

}  // namespace
}  // namespace libra::cluster

#include "src/lsm/block_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace libra::lsm {
namespace {

constexpr auto kIdx = BlockCache::Kind::kIndex;
constexpr auto kFlt = BlockCache::Kind::kFilter;
constexpr auto kDat = BlockCache::Kind::kData;

CachedBlockRef MakeBlock(std::string bytes = {}) {
  auto b = std::make_shared<CachedBlock>();
  b->bytes = std::move(bytes);
  return b;
}

TEST(BlockCacheTest, KindsAndOffsetsAreDistinctKeys) {
  BlockCache cache(0);
  cache.Insert(1, 1, kIdx, 0, MakeBlock("i"), 10);
  cache.Insert(1, 1, kFlt, 0, MakeBlock("f"), 10);
  cache.Insert(1, 1, kDat, 0, MakeBlock("d0"), 10);
  cache.Insert(1, 1, kDat, 4096, MakeBlock("d1"), 10);
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(cache.Get(1, 1, kIdx, 0)->bytes, "i");
  EXPECT_EQ(cache.Get(1, 1, kFlt, 0)->bytes, "f");
  EXPECT_EQ(cache.Get(1, 1, kDat, 0)->bytes, "d0");
  EXPECT_EQ(cache.Get(1, 1, kDat, 4096)->bytes, "d1");
}

TEST(BlockCacheTest, TenantsDoNotShareEntries) {
  BlockCache cache(0);
  // Two tenants' partitions both number their first table 1 — the tenant
  // id in the key keeps them apart in the node-shared cache.
  cache.Insert(1, 1, kDat, 0, MakeBlock("tenant1"), 10);
  cache.Insert(2, 1, kDat, 0, MakeBlock("tenant2"), 10);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Get(1, 1, kDat, 0)->bytes, "tenant1");
  EXPECT_EQ(cache.Get(2, 1, kDat, 0)->bytes, "tenant2");
}

TEST(BlockCacheTest, PerTenantPerKindCounters) {
  BlockCache cache(0);
  cache.Insert(1, 1, kIdx, 0, MakeBlock(), 10);
  cache.Insert(2, 1, kDat, 0, MakeBlock(), 10);
  EXPECT_NE(cache.Get(1, 1, kIdx, 0), nullptr);   // tenant 1 index hit
  EXPECT_EQ(cache.Get(1, 1, kFlt, 0), nullptr);   // tenant 1 filter miss
  EXPECT_NE(cache.Get(2, 1, kDat, 0), nullptr);   // tenant 2 data hit
  EXPECT_EQ(cache.Get(2, 1, kDat, 4096), nullptr);  // tenant 2 data miss

  const auto t1 = cache.CountersOf(1);
  EXPECT_EQ(t1.hits[static_cast<int>(kIdx)], 1u);
  EXPECT_EQ(t1.misses[static_cast<int>(kFlt)], 1u);
  EXPECT_EQ(t1.hits[static_cast<int>(kDat)], 0u);
  const auto t2 = cache.CountersOf(2);
  EXPECT_EQ(t2.hits[static_cast<int>(kDat)], 1u);
  EXPECT_EQ(t2.misses[static_cast<int>(kDat)], 1u);
  // Globals are the per-tenant sums.
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  // Unknown tenant: all zero.
  const auto t9 = cache.CountersOf(9);
  EXPECT_EQ(t9.hits[0] + t9.misses[0] + t9.evictions, 0u);
}

TEST(BlockCacheTest, EvictionChargedToVictimTenant) {
  BlockCache cache(100);
  cache.Insert(1, 1, kDat, 0, MakeBlock(), 60);
  cache.Insert(2, 1, kDat, 0, MakeBlock(), 60);  // evicts tenant 1's block
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.CountersOf(1).evictions, 1u);
  EXPECT_EQ(cache.CountersOf(2).evictions, 0u);
  EXPECT_EQ(cache.Get(1, 1, kDat, 0), nullptr);
  EXPECT_NE(cache.Get(2, 1, kDat, 0), nullptr);
}

TEST(BlockCacheTest, InsertReplacesExistingKey) {
  BlockCache cache(0);
  cache.Insert(1, 1, kDat, 0, MakeBlock("old"), 10);
  cache.Insert(1, 1, kDat, 0, MakeBlock("new"), 20);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 20u);
  EXPECT_EQ(cache.evictions(), 0u);  // replacement is not an eviction
  EXPECT_EQ(cache.Get(1, 1, kDat, 0)->bytes, "new");
}

TEST(BlockCacheTest, OversizedInsertKeepsNewestEntry) {
  // An entry larger than the whole budget still becomes resident — the
  // eviction loop never evicts the block just inserted.
  BlockCache cache(10);
  cache.Insert(1, 1, kDat, 0, MakeBlock(), 50);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 50u);
}

TEST(BlockCacheTest, EraseTableDropsAllKindsForThatTableOnly) {
  BlockCache cache(0);
  cache.Insert(1, 7, kIdx, 0, MakeBlock(), 10);
  cache.Insert(1, 7, kFlt, 0, MakeBlock(), 10);
  cache.Insert(1, 7, kDat, 0, MakeBlock(), 10);
  cache.Insert(1, 7, kDat, 4096, MakeBlock(), 10);
  cache.Insert(1, 8, kIdx, 0, MakeBlock(), 10);
  cache.Insert(2, 7, kIdx, 0, MakeBlock(), 10);  // other tenant's table 7
  cache.EraseTable(1, 7);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);  // deletion is not an eviction
  EXPECT_NE(cache.Get(1, 8, kIdx, 0), nullptr);
  EXPECT_NE(cache.Get(2, 7, kIdx, 0), nullptr);
}

TEST(BlockCacheTest, RefPinsBlockPastEviction) {
  BlockCache cache(100);
  cache.Insert(1, 1, kDat, 0, MakeBlock("pinned"), 60);
  CachedBlockRef ref = cache.Get(1, 1, kDat, 0);
  cache.Insert(1, 2, kDat, 0, MakeBlock(), 60);  // evicts table 1's block
  EXPECT_EQ(cache.Get(1, 1, kDat, 0), nullptr);
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->bytes, "pinned");  // the caller's view stays valid
}

TEST(BlockCacheTest, OnlyABudgetCachesDataBlocks) {
  // Unbudgeted: index and filter blocks only (it would otherwise keep every
  // data block ever read).
  EXPECT_FALSE(BlockCache(0).caches_data());
  EXPECT_FALSE(BlockCache().caches_data());
  EXPECT_TRUE(BlockCache(1).caches_data());
}

}  // namespace
}  // namespace libra::lsm

#include "src/lsm/sstable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "tests/lsm/lsm_rig.h"

namespace libra::lsm {
namespace {

using testing::LsmRig;

const iosched::IoTag kFlushTag{1, iosched::AppRequest::kPut,
                               iosched::InternalOp::kFlush, {}};
const iosched::IoTag kGetTag{1, iosched::AppRequest::kGet,
                             iosched::InternalOp::kNone, {}};

// Builds a table with `n` keys "key00000i" -> "value_i" at seq i+1.
fs::FileId BuildTestTable(LsmRig& rig, int n, uint32_t value_size = 100) {
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&, file]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    for (int i = 0; i < n; ++i) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%07d", i);
      builder.Add(key, static_cast<SequenceNumber>(i + 1), ValueType::kPut,
                  std::string(value_size, 'a' + (i % 26)));
    }
    EXPECT_TRUE((co_await builder.Finish(kFlushTag)).ok());
  }());
  return file;
}

TEST(SstableTest, BuildAndLookup) {
  LsmRig rig;
  const fs::FileId file = BuildTestTable(rig, 500);
  BlockCache cache;
  SstableReader reader(rig.fs, file, cache);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await reader.Get(kGetTag, "key0000042", UINT64_MAX);
    EXPECT_TRUE(r.status.ok());
    EXPECT_TRUE(r.found);
    if (r.found) {
      EXPECT_EQ(r.value, std::string(100, 'a' + (42 % 26)));
    }
  }());
}

TEST(SstableTest, MissingKeyNotFound) {
  LsmRig rig;
  const fs::FileId file = BuildTestTable(rig, 100);
  BlockCache cache;
  SstableReader reader(rig.fs, file, cache);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await reader.Get(kGetTag, "key0000xyz", UINT64_MAX);
    EXPECT_TRUE(r.status.ok());
    EXPECT_FALSE(r.found);
    // Before the first key and after the last key.
    r = co_await reader.Get(kGetTag, "aaa", UINT64_MAX);
    EXPECT_FALSE(r.found);
    r = co_await reader.Get(kGetTag, "zzz", UINT64_MAX);
    EXPECT_FALSE(r.found);
  }());
}

TEST(SstableTest, SmallestLargestTracked) {
  LsmRig rig;
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    builder.Add("apple", 1, ValueType::kPut, "1");
    builder.Add("mango", 2, ValueType::kPut, "2");
    builder.Add("zebra", 3, ValueType::kPut, "3");
    EXPECT_EQ(builder.smallest_key(), "apple");
    EXPECT_EQ(builder.largest_key(), "zebra");
    EXPECT_EQ(builder.num_entries(), 3u);
    co_await builder.Finish(kFlushTag);
  }());
}

TEST(SstableTest, TombstonesSurfaceAsDeleted) {
  LsmRig rig;
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    builder.Add("key", 5, ValueType::kDelete, "");
    builder.Add("key", 2, ValueType::kPut, "old");
    co_await builder.Finish(kFlushTag);
    BlockCache cache;
    SstableReader reader(rig.fs, file, cache);
    auto r = co_await reader.Get(kGetTag, "key", UINT64_MAX);
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(r.deleted);
    // At an older snapshot the PUT is visible.
    r = co_await reader.Get(kGetTag, "key", 2);
    EXPECT_TRUE(r.found);
    EXPECT_FALSE(r.deleted);
    EXPECT_EQ(r.value, "old");
  }());
}

TEST(SstableTest, LookupCostsIndexPlusDataBlock) {
  LsmRig rig;
  const fs::FileId file = BuildTestTable(rig, 2000);  // many 4KB blocks
  BlockCache cache;
  SstableReader reader(rig.fs, file, cache);
  const auto before = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await reader.Get(kGetTag, "key0001000", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  const auto after = rig.sched.tracker().Stats(1);
  // Footer + index + one data block = 3 reads (both cached afterwards,
  // like LevelDB's table cache).
  EXPECT_EQ(after.read_ops - before.read_ops, 3u);

  const auto mid = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await reader.Get(kGetTag, "key0000001", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  // Second lookup: one data-block read only.
  EXPECT_EQ(rig.sched.tracker().Stats(1).read_ops - mid.read_ops, 1u);
}

CachedBlockRef MakeBlock() { return std::make_shared<CachedBlock>(); }

TEST(BlockCacheTest, BoundedCapacityEvictsLeastRecentlyUsed) {
  constexpr auto kIdx = BlockCache::Kind::kIndex;
  BlockCache cache(100);
  cache.Insert(1, 1, kIdx, 0, MakeBlock(), 40);
  cache.Insert(1, 2, kIdx, 0, MakeBlock(), 40);
  EXPECT_EQ(cache.resident_bytes(), 80u);
  // Touch table 1 so table 2 becomes the LRU tail.
  EXPECT_NE(cache.Get(1, 1, kIdx, 0), nullptr);
  cache.Insert(1, 3, kIdx, 0, MakeBlock(), 40);  // 120 > 100: evicts table 2
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.resident_bytes(), 80u);
  EXPECT_EQ(cache.Get(1, 2, kIdx, 0), nullptr);  // miss
  EXPECT_NE(cache.Get(1, 1, kIdx, 0), nullptr);
  EXPECT_NE(cache.Get(1, 3, kIdx, 0), nullptr);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
  // EraseTable (table deletion) is not an eviction.
  cache.EraseTable(1, 1);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(BlockCacheTest, ZeroCapacityIsUnbounded) {
  BlockCache cache(0);
  for (uint64_t t = 0; t < 32; ++t) {
    cache.Insert(1, t, BlockCache::Kind::kIndex, 0, MakeBlock(), 1 * kMiB);
  }
  EXPECT_EQ(cache.entries(), 32u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 32u * kMiB);
}

TEST(SstableTest, SharedCacheServesRepeatLookups) {
  LsmRig rig;
  const fs::FileId file = BuildTestTable(rig, 2000);
  // The default, unbudgeted cache: index and filter blocks only.
  BlockCache cache;
  SstableReader reader(rig.fs, file, cache, {}, /*table=*/1, /*tenant=*/1);
  const auto before = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await reader.Get(kGetTag, "key0001000", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  // Cold: footer + index + data block, and the index landed in the cache.
  EXPECT_EQ(rig.sched.tracker().Stats(1).read_ops - before.read_ops, 3u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.resident_bytes(), 0u);
  const auto mid = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await reader.Get(kGetTag, "key0000001", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  // Warm: the shared cache supplies the index; only the data block is read.
  EXPECT_EQ(rig.sched.tracker().Stats(1).read_ops - mid.read_ops, 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(SstableTest, EvictedIndexReloadIsRereadAndCharged) {
  LsmRig rig;
  const fs::FileId file_a = BuildTestTable(rig, 2000);
  // A second table in the same FS (BuildTestTable always names "sst_1").
  const fs::FileId file_b = *rig.fs.Create("sst_2");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file_b);
    for (int i = 0; i < 2000; ++i) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%07d", i);
      builder.Add(key, static_cast<SequenceNumber>(i + 1), ValueType::kPut,
                  std::string(100, 'b'));
    }
    EXPECT_TRUE((co_await builder.Finish(kFlushTag)).ok());
  }());
  // Capacity below a single block: every insert evicts the older entries
  // (an insert never evicts itself, so only the newest block is resident).
  BlockCache cache(1);
  SstableReader ra(rig.fs, file_a, cache, {}, /*table=*/1, /*tenant=*/1);
  SstableReader rb(rig.fs, file_b, cache, {}, /*table=*/2, /*tenant=*/1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await ra.Get(kGetTag, "key0001000", UINT64_MAX);
    EXPECT_TRUE(r.found);
    r = co_await rb.Get(kGetTag, "key0001000", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  ASSERT_GE(cache.evictions(), 1u);
  const auto mid = rig.sched.tracker().Stats(1);
  rig.RunTask([&]() -> sim::Task<void> {
    auto r = co_await ra.Get(kGetTag, "key0000500", UINT64_MAX);
    EXPECT_TRUE(r.found);
  }());
  // Table A's index was evicted: reload re-reads the index block (footer
  // stays cached in the reader) plus the data block = 2 charged reads,
  // where a resident index would have cost 1.
  EXPECT_EQ(rig.sched.tracker().Stats(1).read_ops - mid.read_ops, 2u);
}

TEST(SstableTest, ScanAllYieldsEverythingInOrder) {
  LsmRig rig;
  const fs::FileId file = BuildTestTable(rig, 777);
  BlockCache cache;
  SstableReader reader(rig.fs, file, cache);
  std::vector<std::string> keys;
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await reader.ScanAll(
                     kGetTag, [&](const Record& r) { keys.emplace_back(r.key); }))
                    .ok());
  }());
  ASSERT_EQ(keys.size(), 777u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), "key0000000");
  EXPECT_EQ(keys.back(), "key0000776");
}

TEST(SstableTest, LargeValuesSpanBlocks) {
  LsmRig rig;
  const fs::FileId file = *rig.fs.Create("sst_1");
  const std::string big(64 * 1024, 'B');
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    builder.Add("big0", 1, ValueType::kPut, big);
    builder.Add("big1", 2, ValueType::kPut, big);
    co_await builder.Finish(kFlushTag);
    BlockCache cache;
    SstableReader reader(rig.fs, file, cache);
    auto r = co_await reader.Get(kGetTag, "big1", UINT64_MAX);
    EXPECT_TRUE(r.found);
    if (r.found) {
      EXPECT_EQ(r.value, big);
    }
  }());
}

TEST(SstableTest, EmptyTableLookups) {
  LsmRig rig;
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file);
    co_await builder.Finish(kFlushTag);
    BlockCache cache;
    SstableReader reader(rig.fs, file, cache);
    auto r = co_await reader.Get(kGetTag, "anything", UINT64_MAX);
    EXPECT_FALSE(r.found);
  }());
}

// Pins the encoder: the bytes of a table built from a seeded input (several
// versions per key, tombstones, values from a few bytes to past a block,
// a bloom filter, chunked appends) must not move. The size and CRC were
// captured from the block-staging builder this encoder replaced.
TEST(SstableTest, EncodedBytesArePinned) {
  LsmRig rig;
  Rng rng(2024);
  struct In {
    std::string key;
    SequenceNumber seq;
    ValueType type;
    std::string value;
  };
  std::vector<In> input;
  SequenceNumber seq = 0;
  for (int i = 0; i < 600; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%06llu",
                  static_cast<unsigned long long>(rng.NextU64(400)));
    const bool del = rng.Bernoulli(0.1);
    const uint64_t size =
        rng.Bernoulli(0.05) ? 4096 + rng.NextU64(9000) : rng.NextU64(300);
    std::string value;
    for (uint64_t b = 0; b < size && !del; ++b) {
      value.push_back(static_cast<char>('a' + rng.NextU64(26)));
    }
    input.push_back(
        {key, ++seq, del ? ValueType::kDelete : ValueType::kPut, value});
  }
  std::sort(input.begin(), input.end(), [](const In& a, const In& b) {
    return CompareInternalKey(a.key, a.seq, b.key, b.seq) < 0;
  });
  SstableOptions opt;
  opt.write_chunk_bytes = 65536;
  opt.bloom_bits_per_key = 10;
  const fs::FileId file = *rig.fs.Create("sst_1");
  rig.RunTask([&]() -> sim::Task<void> {
    SstableBuilder builder(rig.fs, file, opt);
    uint64_t key_bytes = 0;
    uint64_t value_bytes = 0;
    for (const In& e : input) {
      key_bytes += e.key.size();
      value_bytes += e.value.size();
    }
    builder.Reserve(input.size(), key_bytes, value_bytes);
    for (const In& e : input) {
      builder.Add(e.key, e.seq, e.type, e.value);
    }
    EXPECT_TRUE((co_await builder.Finish(kFlushTag)).ok());
  }());
  std::string bytes;
  ASSERT_TRUE(rig.fs.PeekContents(file, &bytes).ok());
  EXPECT_EQ(bytes.size(), 354226u);
  EXPECT_EQ(Crc32(bytes), 0x0290840bu);
  // Six sequential 64 KiB appends, as before.
  EXPECT_EQ(rig.sched.tracker().Stats(1).write_ops, 6u);
}

}  // namespace
}  // namespace libra::lsm

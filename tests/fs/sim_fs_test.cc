#include "src/fs/sim_fs.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/iosched/cost_model.h"
#include "src/sim/event_loop.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::fs {
namespace {

ssd::CalibrationTable FakeTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

struct FsRig {
  sim::EventLoop loop;
  ssd::SsdDevice device{loop, ssd::Intel320Profile()};
  iosched::IoScheduler sched{
      loop, device, std::make_unique<iosched::ExactCostModel>(FakeTable())};
  SimFs fs{sched, device};
  iosched::IoTag tag{1, iosched::AppRequest::kPut, iosched::InternalOp::kNone,
                     {}};

  FsRig() { sched.SetAllocation(1, 10000.0); }

  // Runs a coroutine to completion on the loop.
  void RunTask(sim::Task<void> t) {
    sim::Detach(std::move(t));
    loop.Run();
  }
};

TEST(SimFsTest, CreateOpenExistsDelete) {
  FsRig rig;
  auto id = rig.fs.Create("a");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(rig.fs.Exists("a"));
  auto open = rig.fs.Open("a");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(*open, *id);
  EXPECT_TRUE(rig.fs.Delete("a").ok());
  EXPECT_FALSE(rig.fs.Exists("a"));
  EXPECT_EQ(rig.fs.Open("a").status().code(), StatusCode::kNotFound);
}

TEST(SimFsTest, DuplicateCreateFails) {
  FsRig rig;
  ASSERT_TRUE(rig.fs.Create("a").ok());
  EXPECT_EQ(rig.fs.Create("a").status().code(), StatusCode::kAlreadyExists);
}

TEST(SimFsTest, AppendThenReadRoundTrips) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.fs.Append(id, rig.tag, "hello ")).ok());
    EXPECT_TRUE((co_await rig.fs.Append(id, rig.tag, "world")).ok());
    StatusOr<std::string_view> out = co_await rig.fs.ReadAt(id, rig.tag, 0, 11);
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.value_or(""), "hello world");
    out = co_await rig.fs.ReadAt(id, rig.tag, 6, 5);
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.value_or(""), "world");
  }());
  EXPECT_EQ(rig.fs.SizeOf(id), 11u);
}

// A view read returns the exact bytes, and an extent-crossing read is still
// split and charged as it was when reads copied: 4 device reads, the same
// bytes, VOPs and virtual time.
TEST(SimFsTest, ViewReadChargesTheSameDeviceIo) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  std::string big;
  for (int i = 0; i < 3 * 1024 * 1024; ++i) {
    big.push_back(static_cast<char>('a' + i % 23));
  }
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, big);
  }());
  const auto before = rig.sched.tracker().Stats(1);
  const SimTime t0 = rig.loop.Now();
  constexpr uint64_t kOffset = 1024 * 1024 - 1000;  // crosses an extent
  constexpr uint64_t kLength = 300 * 1024;
  rig.RunTask([&]() -> sim::Task<void> {
    StatusOr<std::string_view> out =
        co_await rig.fs.ReadAt(id, rig.tag, kOffset, kLength);
    EXPECT_TRUE(out.ok());
    if (!out.ok()) {
      co_return;
    }
    EXPECT_EQ(*out, std::string_view(big).substr(kOffset, kLength));
  }());
  const auto after = rig.sched.tracker().Stats(1);
  EXPECT_EQ(after.read_ops - before.read_ops, 4u);
  EXPECT_EQ(after.read_bytes - before.read_bytes, kLength);
  EXPECT_DOUBLE_EQ(after.vops - before.vops, 43.965473694701927);
  EXPECT_EQ(rig.loop.Now() - t0, 2141866);
}

// A view is of the file's own bytes: creating, growing and deleting other
// files never moves them.
TEST(SimFsTest, ViewSurvivesOtherFilesChurn) {
  FsRig rig;
  const FileId id = *rig.fs.Create("keep");
  const std::string payload(5000, 'k');
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, payload);
    StatusOr<std::string_view> view =
        co_await rig.fs.ReadAt(id, rig.tag, 100, 4000);
    EXPECT_TRUE(view.ok());
    if (!view.ok()) {
      co_return;
    }
    for (int round = 0; round < 4; ++round) {
      const std::string name =
          std::string("churn_").append(std::to_string(round));
      const FileId other = *rig.fs.Create(name);
      for (int i = 0; i < 8; ++i) {
        co_await rig.fs.Append(other, rig.tag, std::string(70000, 'c'));
      }
      if (round % 2 == 0) {
        EXPECT_TRUE(rig.fs.Delete(name).ok());
      }
    }
    EXPECT_EQ(*view, std::string_view(payload).substr(100, 4000));
  }());
}

// Reserve sizes the host buffer once, so earlier views stay put through
// later appends, while size, extents and bytes_used still grow append by
// append.
TEST(SimFsTest, ReserveKeepsViewsThroughAppends) {
  FsRig rig;
  const FileId id = *rig.fs.Create("t");
  constexpr uint64_t kChunk = 512 * 1024;
  ASSERT_TRUE(rig.fs.Reserve(id, 4 * kChunk).ok());
  EXPECT_EQ(rig.fs.SizeOf(id), 0u);
  EXPECT_EQ(rig.fs.stats().bytes_used, 0u);
  const uint64_t free_before = rig.fs.stats().extents_free;
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, std::string(kChunk, 'a'));
    StatusOr<std::string_view> first =
        co_await rig.fs.ReadAt(id, rig.tag, 0, kChunk);
    EXPECT_TRUE(first.ok());
    if (!first.ok()) {
      co_return;
    }
    const char* where = first->data();
    for (uint64_t i = 1; i < 4; ++i) {
      co_await rig.fs.Append(id, rig.tag, std::string(kChunk, 'a' + i));
      EXPECT_EQ(rig.fs.SizeOf(id), (i + 1) * kChunk);
      EXPECT_EQ(rig.fs.stats().bytes_used, (i + 1) * kChunk);
      // 1 MiB extents: one more every second chunk.
      EXPECT_EQ(free_before - rig.fs.stats().extents_free, (i + 2) / 2);
    }
    EXPECT_EQ(first->data(), where);
    EXPECT_EQ(*first, std::string(kChunk, 'a'));
  }());
  EXPECT_EQ(rig.fs.Reserve(kInvalidFile, 1).code(), StatusCode::kNotFound);
}

TEST(SimFsTest, ReadPastEofFails) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, "abc");
    EXPECT_EQ((co_await rig.fs.ReadAt(id, rig.tag, 2, 5)).status().code(),
              StatusCode::kOutOfRange);
  }());
}

TEST(SimFsTest, AppendCrossesExtentBoundary) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  const std::string big(3 * 1024 * 1024 + 123, 'x');  // 3MB+ spans extents
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.fs.Append(id, rig.tag, big)).ok());
    StatusOr<std::string_view> out =
        co_await rig.fs.ReadAt(id, rig.tag, big.size() - 10, 10);
    EXPECT_EQ(out.value_or(""), std::string(10, 'x'));
  }());
  EXPECT_EQ(rig.fs.SizeOf(id), big.size());
}

TEST(SimFsTest, IoIsChargedToTenant) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, std::string(64 * 1024, 'y'));
  }());
  const auto& stats = rig.sched.tracker().Stats(1);
  EXPECT_EQ(stats.write_bytes, 64u * 1024u);
  EXPECT_GT(stats.vops, 1.0);
}

TEST(SimFsTest, AppendAdvancesVirtualTime) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, std::string(4096, 'z'));
    // O_SYNC: the append returns only after the device write completes.
    EXPECT_GT(rig.loop.Now(), 0);
  }());
}

TEST(SimFsTest, DeleteFreesExtentsForReuse) {
  FsRig rig;
  const auto before = rig.fs.stats().extents_free;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, std::string(2 * 1024 * 1024, 'a'));
  }());
  EXPECT_LT(rig.fs.stats().extents_free, before);
  ASSERT_TRUE(rig.fs.Delete("f").ok());
  EXPECT_EQ(rig.fs.stats().extents_free, before);
}

TEST(SimFsTest, RenamePreservesContents) {
  FsRig rig;
  const FileId id = *rig.fs.Create("old");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, "payload");
  }());
  ASSERT_TRUE(rig.fs.Rename("old", "new").ok());
  EXPECT_FALSE(rig.fs.Exists("old"));
  ASSERT_TRUE(rig.fs.Exists("new"));
  EXPECT_EQ(*rig.fs.Open("new"), id);
  EXPECT_EQ(rig.fs.SizeOf(id), 7u);
}

TEST(SimFsTest, RenameToExistingFails) {
  FsRig rig;
  ASSERT_TRUE(rig.fs.Create("a").ok());
  ASSERT_TRUE(rig.fs.Create("b").ok());
  EXPECT_EQ(rig.fs.Rename("a", "b").code(), StatusCode::kAlreadyExists);
}

TEST(SimFsTest, ListEnumeratesFiles) {
  FsRig rig;
  ASSERT_TRUE(rig.fs.Create("x").ok());
  ASSERT_TRUE(rig.fs.Create("y").ok());
  const auto names = rig.fs.List();
  EXPECT_EQ(names.size(), 2u);
}

TEST(SimFsTest, ListPrefixStopsAtTheNameBoundary) {
  FsRig rig;
  for (const char* name :
       {"tenant_1/wal_7", "tenant_10/sst_3", "tenant_1x", "tenant_1/sst_2",
        "tenant_0/wal_1", "tenant_10/wal_4", "tenant_2/sst_5", "tenant_1"}) {
    ASSERT_TRUE(rig.fs.Create(name).ok()) << name;
  }
  // Only the partition's own directory, in name (map) order.
  EXPECT_EQ(rig.fs.List("tenant_1/"),
            (std::vector<std::string>{"tenant_1/sst_2", "tenant_1/wal_7"}));
  EXPECT_EQ(rig.fs.List("tenant_10/"),
            (std::vector<std::string>{"tenant_10/sst_3", "tenant_10/wal_4"}));
  // A bare prefix is a plain string prefix.
  EXPECT_EQ(rig.fs.List("tenant_1"),
            (std::vector<std::string>{"tenant_1", "tenant_1/sst_2",
                                      "tenant_1/wal_7", "tenant_10/sst_3",
                                      "tenant_10/wal_4", "tenant_1x"}));
  EXPECT_TRUE(rig.fs.List("tenant_3/").empty());
  EXPECT_TRUE(rig.fs.List("zzz").empty());
  // No prefix: everything, in name order.
  EXPECT_EQ(rig.fs.List(),
            (std::vector<std::string>{
                "tenant_0/wal_1", "tenant_1", "tenant_1/sst_2",
                "tenant_1/wal_7", "tenant_10/sst_3", "tenant_10/wal_4",
                "tenant_1x", "tenant_2/sst_5"}));
}

TEST(SimFsTest, PeekContentsBypassesIo) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, "secret");
  }());
  const SimTime t = rig.loop.Now();
  std::string out;
  EXPECT_TRUE(rig.fs.PeekContents(id, &out).ok());
  EXPECT_EQ(out, "secret");
  EXPECT_EQ(rig.loop.Now(), t);  // no time passed, no IO charged
}

TEST(SimFsTest, ConcurrentAppendsDoNotInterleaveBytes) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  auto writer = [&](char c) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await rig.fs.Append(id, rig.tag, std::string(100, c));
    }
  };
  sim::Detach(writer('a'));
  sim::Detach(writer('b'));
  rig.loop.Run();
  std::string all;
  ASSERT_TRUE(rig.fs.PeekContents(id, &all).ok());
  ASSERT_EQ(all.size(), 2000u);
  // Every 100-byte record is homogeneous.
  for (size_t i = 0; i < all.size(); i += 100) {
    const char c = all[i];
    EXPECT_EQ(all.substr(i, 100), std::string(100, c)) << "chunk " << i;
  }
}

}  // namespace
}  // namespace libra::fs

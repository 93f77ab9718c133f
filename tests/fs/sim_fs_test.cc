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
    std::string out;
    EXPECT_TRUE((co_await rig.fs.ReadAt(id, rig.tag, 0, 11, &out)).ok());
    EXPECT_EQ(out, "hello world");
    out.clear();
    EXPECT_TRUE((co_await rig.fs.ReadAt(id, rig.tag, 6, 5, &out)).ok());
    EXPECT_EQ(out, "world");
  }());
  EXPECT_EQ(rig.fs.SizeOf(id), 11u);
}

TEST(SimFsTest, ReadPastEofFails) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  rig.RunTask([&]() -> sim::Task<void> {
    co_await rig.fs.Append(id, rig.tag, "abc");
    std::string out;
    EXPECT_EQ((co_await rig.fs.ReadAt(id, rig.tag, 2, 5, &out)).code(),
              StatusCode::kOutOfRange);
  }());
}

TEST(SimFsTest, AppendCrossesExtentBoundary) {
  FsRig rig;
  const FileId id = *rig.fs.Create("f");
  const std::string big(3 * 1024 * 1024 + 123, 'x');  // 3MB+ spans extents
  rig.RunTask([&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await rig.fs.Append(id, rig.tag, big)).ok());
    std::string out;
    EXPECT_TRUE(
        (co_await rig.fs.ReadAt(id, rig.tag, big.size() - 10, 10, &out)).ok());
    EXPECT_EQ(out, std::string(10, 'x'));
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

// Parameterized scheduler properties: proportional sharing must hold for
// arbitrary allocation ratios and op-size pairings, and VOP insulation for
// every read/write tenant pairing on the size grid.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::iosched {
namespace {

ssd::CalibrationTable SchedTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

// Runs two backlogged tenants with the given allocations/op shapes and
// returns their consumed-VOP ratio (tenant 0 / tenant 1).
double TwoTenantVopRatio(double alloc0, double alloc1, ssd::IoType type0,
                         uint32_t size0, ssd::IoType type1, uint32_t size1) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(512 * kMiB);
  IoScheduler sched(loop, device,
                    std::make_unique<ExactCostModel>(SchedTable()));
  sched.SetAllocation(0, alloc0);
  sched.SetAllocation(1, alloc1);
  Rng rng(71);
  auto worker = [&](TenantId t, ssd::IoType type, uint32_t size,
                    SimTime end) -> sim::Task<void> {
    while (loop.Now() < end) {
      const uint64_t slots = (512 * kMiB) / size;
      const uint64_t off = rng.NextU64(slots) * size;
      IoTag tag{t, AppRequest::kGet, InternalOp::kNone, {}};
      if (type == ssd::IoType::kRead) {
        co_await sched.Read(tag, off, size);
      } else {
        co_await sched.Write(tag, off, size);
      }
    }
  };
  {
    sim::TaskGroup group(loop);
    const SimTime end = 2 * kSecond;
    for (int w = 0; w < 16; ++w) {
      group.Spawn(worker(0, type0, size0, end));
      group.Spawn(worker(1, type1, size1, end));
    }
    loop.Run();
  }
  return sched.tracker().Stats(0).vops / sched.tracker().Stats(1).vops;
}

// --- proportionality over allocation ratios ---

class ProportionalShares : public ::testing::TestWithParam<double> {};

TEST_P(ProportionalShares, VopSplitFollowsAllocationRatio) {
  const double ratio = GetParam();
  const double measured = TwoTenantVopRatio(1000.0 * ratio, 1000.0,
                                            ssd::IoType::kRead, 8192,
                                            ssd::IoType::kRead, 8192);
  EXPECT_NEAR(measured / ratio, 1.0, 0.15) << "target ratio " << ratio;
}

INSTANTIATE_TEST_SUITE_P(Ratios, ProportionalShares,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0, 5.0, 8.0));

// --- insulation across op-shape pairings ---

using ShapeParam = std::tuple<uint32_t, uint32_t>;  // (read KB, write KB)

class EqualShareInsulation : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(EqualShareInsulation, EqualAllocationsGiveEqualVops) {
  const auto [read_kb, write_kb] = GetParam();
  const double ratio =
      TwoTenantVopRatio(1000.0, 1000.0, ssd::IoType::kRead, read_kb * 1024,
                        ssd::IoType::kWrite, write_kb * 1024);
  // A reader and a writer with equal VOP allocations and wildly different
  // op sizes should consume VOPs ~1:1 (the Fig. 7 property).
  EXPECT_NEAR(ratio, 1.0, 0.2) << read_kb << "KB reads vs " << write_kb
                               << "KB writes";
}

INSTANTIATE_TEST_SUITE_P(
    SizePairs, EqualShareInsulation,
    ::testing::Combine(::testing::Values(1u, 16u, 128u),
                       ::testing::Values(1u, 16u, 128u)),
    [](const ::testing::TestParamInfo<ShapeParam>& info) {
      return std::string("r")
          .append(std::to_string(std::get<0>(info.param)))
          .append("k_w")
          .append(std::to_string(std::get<1>(info.param)))
          .append("k");
    });

}  // namespace
}  // namespace libra::iosched

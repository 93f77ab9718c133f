#include "src/iosched/resource_policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/sim/event_loop.h"
#include "src/ssd/calibration.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::iosched {
namespace {

ssd::CalibrationTable TestTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1030};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

struct PolicyRig {
  sim::EventLoop loop;
  ssd::SsdDevice device{loop, ssd::Intel320Profile()};
  IoScheduler sched{loop, device,
                    std::make_unique<ExactCostModel>(TestTable())};
  CapacityModel capacity{19000.0};
  ResourcePolicy policy{loop, sched, capacity};
};

TEST(ResourcePolicyTest, FallbackPricingProvisionsFromCostModel) {
  PolicyRig rig;
  rig.policy.SetReservation(1, {1000.0, 0.0});  // 1000 GET/s, no PUTs
  rig.policy.RunIntervalStep();
  // No observations: a normalized GET is priced as a 1KB read = 1 VOP.
  EXPECT_NEAR(rig.sched.Allocation(1), 1000.0, 1.0);
}

TEST(ResourcePolicyTest, WritesPricedHigherThanReads) {
  PolicyRig rig;
  rig.policy.SetReservation(1, {1000.0, 0.0});
  rig.policy.SetReservation(2, {0.0, 1000.0});
  rig.policy.RunIntervalStep();
  EXPECT_GT(rig.sched.Allocation(2), 2.0 * rig.sched.Allocation(1));
}

TEST(ResourcePolicyTest, TrackedProfileOverridesFallback) {
  PolicyRig rig;
  rig.policy.SetReservation(1, {100.0, 0.0});
  // Observed: GETs cost 5 VOPs per normalized request (amplified lookups).
  for (int i = 0; i < 50; ++i) {
    rig.sched.tracker().RecordAppRequest(1, AppRequest::kGet, 1024);
    rig.sched.tracker().RecordIo({1, AppRequest::kGet, InternalOp::kNone, {}},
                                 ssd::IoType::kRead, 1024, 5.0);
  }
  rig.policy.RunIntervalStep();
  EXPECT_NEAR(rig.sched.Allocation(1), 500.0, 5.0);
}

TEST(ResourcePolicyTest, IndirectCostsIncludedInAllocation) {
  PolicyRig rig;
  rig.policy.SetReservation(1, {0.0, 100.0});
  ResourceTracker& tr = rig.sched.tracker();
  // 100 PUTs at 2 VOPs direct, plus one FLUSH of 100 VOPs.
  for (int i = 0; i < 100; ++i) {
    tr.RecordAppRequest(1, AppRequest::kPut, 1024);
    tr.RecordIo({1, AppRequest::kPut, InternalOp::kNone, {}},
                ssd::IoType::kWrite, 1024, 2.0);
  }
  tr.RecordTrigger(1, AppRequest::kPut, InternalOp::kFlush);
  tr.RecordIo({1, AppRequest::kPut, InternalOp::kFlush, {}},
              ssd::IoType::kWrite, 256 * 1024, 100.0);
  tr.RecordInternalOpDone(1, InternalOp::kFlush);
  rig.policy.RunIntervalStep();
  // profile = 2 + 100*(1/100) = 3 VOPs per normalized PUT.
  EXPECT_NEAR(rig.sched.Allocation(1), 300.0, 3.0);
}

TEST(ResourcePolicyTest, ObjectSizeOnlyModeIgnoresSecondaryIo) {
  PolicyRig rig;
  PolicyOptions opt;
  opt.mode = ProfileMode::kObjectSizeOnly;
  ResourcePolicy no_profile(rig.loop, rig.sched, rig.capacity, opt);
  no_profile.SetReservation(1, {0.0, 100.0});
  ResourceTracker& tr = rig.sched.tracker();
  for (int i = 0; i < 100; ++i) {
    tr.RecordAppRequest(1, AppRequest::kPut, 1024);
    tr.RecordIo({1, AppRequest::kPut, InternalOp::kNone, {}},
                ssd::IoType::kWrite, 1024, 2.0);
  }
  tr.RecordTrigger(1, AppRequest::kPut, InternalOp::kFlush);
  tr.RecordIo({1, AppRequest::kPut, InternalOp::kFlush, {}},
              ssd::IoType::kWrite, 256 * 1024, 100.0);
  tr.RecordInternalOpDone(1, InternalOp::kFlush);
  no_profile.RunIntervalStep();
  // Object-size pricing: a 1KB PUT is priced as a 1KB write (~2.8 VOPs by
  // the cost model) regardless of the observed amplification.
  const double write_1kb =
      rig.sched.cost_model().Cost(ssd::IoType::kWrite, 1024);
  EXPECT_NEAR(rig.sched.Allocation(1), 100.0 * write_1kb, 5.0);
}

TEST(ResourcePolicyTest, OverbookingScalesDownProportionallyAndNotifies) {
  PolicyRig rig;
  rig.policy.SetReservation(1, {15000.0, 0.0});  // ~15k VOPs
  rig.policy.SetReservation(2, {15000.0, 0.0});  // ~15k VOPs; total > 19k cap
  int events = 0;
  OverflowEvent last;
  rig.policy.SetOverflowCallback([&](const OverflowEvent& ev) {
    ++events;
    last = ev;
  });
  rig.policy.RunIntervalStep();
  EXPECT_EQ(events, 1);
  EXPECT_NEAR(last.scale, 19000.0 / 30000.0, 0.01);
  EXPECT_NEAR(rig.sched.Allocation(1), 15000.0 * last.scale, 20.0);
  EXPECT_NEAR(rig.sched.Allocation(1), rig.sched.Allocation(2), 1e-6);
  // Allocations sum to the floor.
  EXPECT_NEAR(rig.sched.Allocation(1) + rig.sched.Allocation(2), 19000.0, 1.0);
}

TEST(ResourcePolicyTest, UnderbookedNoOverflowEvent) {
  PolicyRig rig;
  rig.policy.SetReservation(1, {1000.0, 0.0});
  int events = 0;
  rig.policy.SetOverflowCallback([&](const OverflowEvent&) { ++events; });
  rig.policy.RunIntervalStep();
  EXPECT_EQ(events, 0);
}

TEST(ResourcePolicyTest, PeriodicStepRunsOnInterval) {
  PolicyRig rig;
  rig.policy.SetReservation(1, {1000.0, 0.0});
  rig.policy.Start();
  // Change the observed cost at t=2.5s; by t=5s the allocation reflects it.
  rig.loop.ScheduleAt(2500 * kMillisecond, [&] {
    for (int i = 0; i < 100; ++i) {
      rig.sched.tracker().RecordAppRequest(1, AppRequest::kGet, 1024);
      rig.sched.tracker().RecordIo({1, AppRequest::kGet, InternalOp::kNone, {}},
                                   ssd::IoType::kRead, 1024, 4.0);
    }
  });
  rig.loop.RunUntil(5 * kSecond);
  rig.policy.Stop();
  EXPECT_GT(rig.sched.Allocation(1), 1500.0);
  rig.loop.Run();  // drain cancelled timers
}

TEST(ResourcePolicyTest, CapacityMonitorObservesThroughput) {
  PolicyRig rig;
  rig.policy.SetReservation(1, {100.0, 0.0});
  rig.policy.Start();
  // Simulate 10k VOP/s of tracked consumption between intervals.
  for (int s = 0; s < 4; ++s) {
    rig.loop.ScheduleAt((s + 1) * kSecond - 1, [&] {
      rig.sched.tracker().RecordIo({1, AppRequest::kGet, InternalOp::kNone, {}},
                                   ssd::IoType::kRead, 1024, 10000.0);
    });
  }
  rig.loop.RunUntil(4500 * kMillisecond);
  rig.policy.Stop();
  EXPECT_GT(rig.capacity.current_estimate(), 5000.0);
  EXPECT_TRUE(rig.capacity.below_floor());
  rig.loop.Run();
}

TEST(CapacityModelTest, FloorAndMonitorBasics) {
  CapacityModel cap(18000.0);
  EXPECT_DOUBLE_EQ(cap.provisionable(), 18000.0);
  EXPECT_FALSE(cap.below_floor());  // no observations yet
  cap.ObserveThroughput(25000.0);
  EXPECT_FALSE(cap.below_floor());
  for (int i = 0; i < 20; ++i) {
    cap.ObserveThroughput(12000.0);
  }
  EXPECT_TRUE(cap.below_floor());
  EXPECT_NEAR(cap.current_estimate(), 12000.0, 500.0);
}

}  // namespace
}  // namespace libra::iosched

// Scheduler-level span emission and attribution conservation: device-IO
// spans parent to the submitting context, WriteShared manifests spread
// their contexts into links, and the attribution estimator's per-tenant
// VOP total reproduces the ResourceTracker's sum bit-for-bit.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/obs/span.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/calibration.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra::iosched {
namespace {

const ssd::CalibrationTable& Table() {
  static const ssd::CalibrationTable* table = [] {
    ssd::CalibrationOptions opt;
    opt.warmup = 200 * kMillisecond;
    opt.measure = 500 * kMillisecond;
    opt.working_set_bytes = 256 * kMiB;
    return new ssd::CalibrationTable(
        ssd::Calibrate(ssd::Intel320Profile(), opt));
  }();
  return *table;
}

struct Rig {
  sim::EventLoop loop;
  ssd::SsdDevice device;
  IoScheduler sched;

  explicit Rig(size_t span_capacity = 1 << 12)
      : device(loop, ssd::Intel320Profile()),
        sched(loop, device, std::make_unique<ExactCostModel>(Table()), [&] {
          SchedulerOptions o;
          o.span_capacity = span_capacity;
          return o;
        }()) {
    device.Prefill(1ULL * kGiB);
  }
};

TEST(SchedulerTraceTest, DeviceIoSpanParentsToSubmitterContext) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  obs::SpanCollector* spans = rig.sched.spans();
  ASSERT_NE(spans, nullptr);
  const TraceContext req = spans->MintTrace();
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone, req}, 0,
                            4096);
  };
  sim::Detach(t());
  rig.loop.Run();

  const std::vector<obs::SpanRecord> recs = spans->Spans();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].kind, obs::SpanKind::kDeviceIo);
  EXPECT_EQ(recs[0].trace_id, req.trace_id);
  EXPECT_EQ(recs[0].parent_span, req.span_id);
  EXPECT_EQ(recs[0].tenant, 0u);
  EXPECT_EQ(recs[0].is_write, 0);
  EXPECT_EQ(recs[0].bytes, 4096u);
  EXPECT_GT(recs[0].vops, 0.0);
  EXPECT_GT(recs[0].end_ns, recs[0].start_ns);
}

TEST(SchedulerTraceTest, UntracedIoEmitsNoSpan) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone, {}}, 0,
                            4096);
  };
  sim::Detach(t());
  rig.loop.Run();
  EXPECT_EQ(rig.sched.spans()->total_recorded(), 0u);
}

TEST(SchedulerTraceTest, WriteSharedLinksFollowerContexts) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  rig.sched.SetAllocation(1, 1000.0);
  obs::SpanCollector* spans = rig.sched.spans();
  const TraceContext leader = spans->MintTrace();
  const TraceContext follower = spans->MintTrace();
  auto t = [&]() -> sim::Task<void> {
    std::vector<IoShare> manifest;
    manifest.push_back(
        {IoTag{0, AppRequest::kPut, InternalOp::kNone, leader}, 4096});
    manifest.push_back(
        {IoTag{1, AppRequest::kPut, InternalOp::kNone, follower}, 4096});
    co_await rig.sched.WriteShared(0, 8192, std::move(manifest));
  };
  sim::Detach(t());
  rig.loop.Run();

  const std::vector<obs::SpanRecord> recs = spans->Spans();
  ASSERT_EQ(recs.size(), 1u);
  // One span for the merged IOP: parented on the leader, follower linked.
  EXPECT_EQ(recs[0].trace_id, leader.trace_id);
  EXPECT_EQ(recs[0].parent_span, leader.span_id);
  ASSERT_EQ(recs[0].links.count, 1u);
  EXPECT_EQ(recs[0].links.items[0].trace_id, follower.trace_id);
  EXPECT_EQ(recs[0].is_write, 1);
}

// The conservation invariant the whole attribution pipeline hangs off:
// the estimator is fed the exact cost doubles the tracker records, in the
// same order, so per-tenant totals agree bitwise — across plain reads and
// writes, chunked large ops, and WriteShared cost splits.
TEST(SchedulerTraceTest, AttributionTotalsMatchTrackerBitForBit) {
  Rig rig;
  for (TenantId t = 0; t < 3; ++t) {
    rig.sched.SetAllocation(t, 1000.0);
  }
  obs::SpanCollector* spans = rig.sched.spans();
  Rng rng(77);
  auto worker = [&](TenantId tenant) -> sim::Task<void> {
    for (int i = 0; i < 40; ++i) {
      const uint32_t size = 1024u << rng.NextU64(8);  // 1KB .. 128KB+
      const uint64_t offset = rng.NextU64(1ULL * kGiB / size) * size;
      IoTag tag{tenant, i % 2 == 0 ? AppRequest::kGet : AppRequest::kPut,
                i % 3 == 0 ? InternalOp::kCompact : InternalOp::kNone,
                spans->MintTrace()};
      if (i % 2 == 0) {
        co_await rig.sched.Read(tag, offset, size);
      } else {
        co_await rig.sched.Write(tag, offset, size);
      }
    }
    // A shared write splitting cost across two tenants (uneven bytes).
    std::vector<IoShare> manifest;
    manifest.push_back(
        {IoTag{tenant, AppRequest::kPut, InternalOp::kNone, spans->MintTrace()},
         1024});
    manifest.push_back({IoTag{static_cast<TenantId>((tenant + 1) % 3),
                              AppRequest::kPut, InternalOp::kNone,
                              spans->MintTrace()},
                        7168});
    co_await rig.sched.WriteShared(0, 8192, std::move(manifest));
  };
  {
    sim::TaskGroup group(rig.loop);
    for (TenantId t = 0; t < 3; ++t) {
      group.Spawn(worker(t));
    }
    rig.loop.Run();
  }

  for (TenantId t = 0; t < 3; ++t) {
    const obs::AttributionMatrix* m = spans->attribution().Of(t);
    ASSERT_NE(m, nullptr);
    // Bitwise equality, not EXPECT_NEAR: same values, same order.
    EXPECT_EQ(m->total_vops, rig.sched.tracker().Stats(t).vops)
        << "tenant " << t;
    EXPECT_GT(m->total_vops, 0.0);
  }
}

TEST(SchedulerTraceTest, SampledOutRequestsStillFeedAttribution) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  SchedulerOptions o;
  o.span_capacity = 1 << 10;
  o.span_sample_every = 1000;  // nothing but the first trace sampled
  sim::EventLoop loop2;
  ssd::SsdDevice device2(loop2, ssd::Intel320Profile());
  device2.Prefill(1ULL * kGiB);
  IoScheduler sched2(loop2, device2, std::make_unique<ExactCostModel>(Table()),
                     o);
  sched2.SetAllocation(0, 1000.0);
  auto t = [&]() -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      // Mint per request as the node does: most come back invalid.
      co_await sched2.Read(
          {0, AppRequest::kGet, InternalOp::kNone, sched2.spans()->MintTrace()},
          static_cast<uint64_t>(i) * 4096, 4096);
    }
  };
  sim::Detach(t());
  loop2.Run();
  // Attribution saw all 8 IOs even though at most one span was recorded.
  const obs::AttributionMatrix* m = sched2.spans()->attribution().Of(0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->total_vops, sched2.tracker().Stats(0).vops);
  EXPECT_LE(sched2.spans()->total_recorded(), 1u);
}

TEST(SchedulerTraceTest, HasDemandReflectsQueuedWork) {
  Rig rig;
  rig.sched.SetAllocation(0, 1000.0);
  EXPECT_FALSE(rig.sched.HasDemand(0));
  bool checked = false;
  auto t = [&]() -> sim::Task<void> {
    co_await rig.sched.Read({0, AppRequest::kGet, InternalOp::kNone, {}}, 0,
                            4096);
  };
  sim::Detach(t());
  rig.loop.ScheduleAt(1, [&] {
    checked = true;
    EXPECT_TRUE(rig.sched.HasDemand(0));
  });
  rig.loop.Run();
  EXPECT_TRUE(checked);
  EXPECT_FALSE(rig.sched.HasDemand(0));
}

}  // namespace
}  // namespace libra::iosched

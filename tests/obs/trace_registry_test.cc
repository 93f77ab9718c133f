#include <gtest/gtest.h>

#include <cstdint>

#include "src/obs/audit.h"
#include "src/obs/json.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace libra::obs {
namespace {

TraceEvent MakeEvent(int64_t t, TraceEventType type) {
  TraceEvent ev;
  ev.time_ns = t;
  ev.type = type;
  ev.tenant = 3;
  ev.app = 1;       // GET
  ev.internal = 0;  // direct
  ev.is_write = 0;
  ev.offset = 4096;
  ev.size = 1024;
  return ev;
}

TEST(TraceRingTest, KeepsNewestWhenFull) {
  TraceRing ring(4);
  for (int64_t i = 0; i < 10; ++i) {
    ring.Record(MakeEvent(i, TraceEventType::kSubmit));
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 10u);
  const auto events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and only the newest four survive.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time_ns, static_cast<int64_t>(6 + i));
  }
}

TEST(TraceRingTest, PartiallyFilled) {
  TraceRing ring(8);
  ring.Record(MakeEvent(1, TraceEventType::kSubmit));
  ring.Record(MakeEvent(2, TraceEventType::kDispatch));
  EXPECT_EQ(ring.size(), 2u);
  const auto events = ring.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time_ns, 1);
  EXPECT_EQ(events[1].time_ns, 2);
}

TEST(TraceRingTest, DumpJsonlIsValidJsonPerLine) {
  TraceRing ring(4);
  TraceEvent done = MakeEvent(42, TraceEventType::kComplete);
  done.chunks = 2;
  done.queue_wait_ns = 100;
  done.service_ns = 200;
  ring.Record(MakeEvent(40, TraceEventType::kSubmit));
  ring.Record(MakeEvent(41, TraceEventType::kDispatch));
  ring.Record(done);
  const std::string dump = ring.DumpJsonl();
  size_t lines = 0;
  size_t start = 0;
  while (start < dump.size()) {
    size_t end = dump.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonParse(dump.substr(start, end - start), &v, &err)) << err;
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.Find("tenant")->number, 3.0);
    EXPECT_EQ(v.Find("app")->string_value, "GET");
    EXPECT_EQ(v.Find("io")->string_value, "R");
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 3u);
  // The complete event carries the lifecycle spans.
  JsonValue last;
  const size_t last_start = dump.rfind('\n', dump.size() - 2) + 1;
  ASSERT_TRUE(JsonParse(
      dump.substr(last_start, dump.size() - 1 - last_start), &last, nullptr));
  EXPECT_EQ(last.Find("ev")->string_value, "complete");
  EXPECT_EQ(last.Find("queue_wait_ns")->number, 100.0);
  EXPECT_EQ(last.Find("service_ns")->number, 200.0);
  EXPECT_EQ(last.Find("chunks")->number, 2.0);
}

TEST(MetricsRegistryTest, FindOrCreateAndStableRefs) {
  MetricsRegistry reg;
  LatencyHistogram& h = reg.GetHistogram("lat", {1, 2, 0});
  h.Record(100);
  // Same key returns the same object.
  EXPECT_EQ(&reg.GetHistogram("lat", {1, 2, 0}), &h);
  EXPECT_EQ(reg.GetHistogram("lat", {1, 2, 0}).count(), 1u);

  // Find does not create.
  EXPECT_EQ(reg.FindHistogram("lat", {9, 9, 9}), nullptr);
  EXPECT_EQ(reg.FindHistogram("lat", {1, 2, 0}), &h);
  EXPECT_EQ(reg.num_series(), 1u);

  int histograms_seen = 0;
  reg.ForEachHistogram([&](const std::string& name, const SeriesKey& key,
                           const LatencyHistogram& hist) {
    EXPECT_EQ(name, "lat");
    EXPECT_EQ(key.tenant, 1u);
    EXPECT_EQ(hist.count(), 1u);
    ++histograms_seen;
  });
  EXPECT_EQ(histograms_seen, 1);
}

TEST(ProvisioningAuditLogTest, BoundedRetention) {
  ProvisioningAuditLog log(/*max_records=*/3);
  for (int i = 0; i < 7; ++i) {
    AuditRecord rec;
    rec.time_ns = i;
    log.Append(std::move(rec));
  }
  EXPECT_EQ(log.total_appended(), 7u);
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().front().time_ns, 4);
  EXPECT_EQ(log.back().time_ns, 6);
}

}  // namespace
}  // namespace libra::obs

#include "src/obs/histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace libra::obs {
namespace {

TEST(LatencyHistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(LatencyHistogramTest, SmallValuesRecordedExactly) {
  // Values below 2 * kSubBuckets (= 64) get a dedicated slot each.
  for (uint64_t v = 0; v < 2 * LatencyHistogram::kSubBuckets; ++v) {
    const int slot = LatencyHistogram::SlotFor(v);
    EXPECT_EQ(LatencyHistogram::SlotLowerBound(slot), v) << "v=" << v;
    EXPECT_EQ(LatencyHistogram::SlotWidth(slot), 1u) << "v=" << v;
  }
}

TEST(LatencyHistogramTest, BucketBoundariesExact) {
  // Every slot's lower bound must map back to that slot, its upper bound
  // too, and lower_bound - 1 must map to the previous slot.
  for (int s = 0; s < LatencyHistogram::kNumSlots; ++s) {
    const uint64_t lo = LatencyHistogram::SlotLowerBound(s);
    const uint64_t width = LatencyHistogram::SlotWidth(s);
    EXPECT_EQ(LatencyHistogram::SlotFor(lo), s) << "slot " << s;
    EXPECT_EQ(LatencyHistogram::SlotFor(lo + width - 1), s) << "slot " << s;
    if (s > 0) {
      EXPECT_EQ(LatencyHistogram::SlotFor(lo - 1), s - 1) << "slot " << s;
    }
  }
}

TEST(LatencyHistogramTest, SlotsArePartition) {
  // Consecutive slots tile the value range with no gaps or overlaps.
  uint64_t expected_lo = 0;
  for (int s = 0; s < LatencyHistogram::kNumSlots; ++s) {
    EXPECT_EQ(LatencyHistogram::SlotLowerBound(s), expected_lo);
    expected_lo += LatencyHistogram::SlotWidth(s);
  }
  EXPECT_EQ(expected_lo, LatencyHistogram::kMaxValue + 1);
}

TEST(LatencyHistogramTest, RelativeErrorBounded) {
  // Bucket width / lower bound <= 1 / kSubBuckets for values >= kSubBuckets.
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextU64(LatencyHistogram::kMaxValue);
    const int s = LatencyHistogram::SlotFor(v);
    const uint64_t lo = LatencyHistogram::SlotLowerBound(s);
    const uint64_t width = LatencyHistogram::SlotWidth(s);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, lo + width);
    if (lo >= LatencyHistogram::kSubBuckets) {
      EXPECT_LE(static_cast<double>(width) / static_cast<double>(lo),
                1.0 / static_cast<double>(LatencyHistogram::kSubBuckets) +
                    1e-12);
    }
  }
}

TEST(LatencyHistogramTest, OverflowSaturates) {
  LatencyHistogram h;
  h.Record(LatencyHistogram::kMaxValue + 12345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), LatencyHistogram::kMaxValue + 12345);
  // p100 clamps to the recorded max even though the bucket saturated.
  EXPECT_EQ(h.Percentile(1.0), LatencyHistogram::kMaxValue + 12345);
}

TEST(LatencyHistogramTest, PercentilesOfKnownDistribution) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // p50 is the bucket holding sample #500 — within 3.2% of 500.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 500.0, 500.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 990.0, 990.0 * 0.04);
  EXPECT_EQ(h.Percentile(0.0), 1u);
  EXPECT_EQ(h.Percentile(1.0), 1000u);
}

TEST(LatencyHistogramTest, PercentileMonotonic) {
  Rng rng(7);
  LatencyHistogram h;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform-ish spread over the full range.
    const uint64_t v = rng.NextU64(1ULL << (1 + rng.NextU64(40)));
    h.Record(v);
  }
  uint64_t prev = 0;
  for (double p = 0.0; p <= 1.0; p += 0.001) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
  EXPECT_EQ(h.Percentile(1.0), h.max());
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  Rng rng(99);
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.NextU64(1000000);
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  for (double p : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(a.Percentile(p), combined.Percentile(p)) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, MergeWithEmpty) {
  LatencyHistogram a, empty;
  a.Record(42);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.Percentile(0.5), 42u);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(10);
  h.Record(1000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.9), 0u);
}

TEST(LatencyHistogramTest, ForEachBucketCoversAllSamples) {
  Rng rng(5);
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(rng.NextU64(1 << 20));
  }
  uint64_t total = 0;
  uint64_t prev_end = 0;
  h.ForEachBucket([&](uint64_t lo, uint64_t width, uint64_t count) {
    EXPECT_GE(lo, prev_end);
    prev_end = lo + width;
    total += count;
  });
  EXPECT_EQ(total, h.count());
}

// Buckets are allocated by the first sample; copies are deep, a moved-from
// histogram is empty, and an empty one copies and merges as empty.
TEST(LatencyHistogramTest, CopyAndMoveKeepBuckets) {
  auto buckets = [](const LatencyHistogram& h) {
    std::vector<uint64_t> out;
    h.ForEachBucket([&](uint64_t lo, uint64_t width, uint64_t count) {
      out.insert(out.end(), {lo, width, count});
    });
    return out;
  };
  LatencyHistogram empty;
  LatencyHistogram empty_copy = empty;
  EXPECT_EQ(empty_copy.count(), 0u);
  EXPECT_TRUE(buckets(empty_copy).empty());

  Rng rng(11);
  LatencyHistogram h;
  for (int i = 0; i < 500; ++i) {
    h.Record(rng.NextU64(1 << 24));
  }
  LatencyHistogram copy = h;
  copy.Record(7);  // deep: the original does not see it
  EXPECT_EQ(copy.count(), h.count() + 1);
  copy = h;
  EXPECT_EQ(buckets(copy), buckets(h));
  EXPECT_EQ(copy.Percentile(0.99), h.Percentile(0.99));
  copy = empty;
  EXPECT_TRUE(buckets(copy).empty());
  EXPECT_EQ(copy.Percentile(0.5), 0u);

  LatencyHistogram moved = std::move(h);
  EXPECT_EQ(moved.count(), 500u);
  EXPECT_EQ(h.count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(buckets(h).empty());
  h.Merge(moved);
  EXPECT_EQ(buckets(h), buckets(moved));
}

}  // namespace
}  // namespace libra::obs

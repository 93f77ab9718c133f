// Log-bucketed latency histogram (HdrHistogram-style).
//
// Values (virtual-time nanoseconds, but any non-negative integer works) are
// binned into power-of-two octaves, each subdivided into 2^kSubBucketBits
// linear sub-buckets, so relative error is bounded by 1/2^kSubBucketBits
// (~3%) across the whole range while values below 2*kSubBuckets are recorded
// exactly. Storage is one fixed-size count array, allocated by the first
// Record() (a histogram that never records costs only its header, which
// matters with one per tenant, node and request class); after that Record()
// is a handful of ALU ops and never allocates, which is what lets the IO
// scheduler keep a histogram per (tenant, app request, internal op) on its
// hot path without perturbing the benchmark shapes it exists to measure.
//
// Percentile queries scan the cumulative counts and report the bucket's
// upper bound, clamped into [min, max] so Percentile(0) and Percentile(1)
// are exact. Histograms merge by bucket-wise addition (same geometry by
// construction), which is how per-class histograms fold into per-tenant
// aggregates for snapshots.

#ifndef LIBRA_SRC_OBS_HISTOGRAM_H_
#define LIBRA_SRC_OBS_HISTOGRAM_H_

#include <cstdint>
#include <memory>

namespace libra::obs {

class LatencyHistogram {
 public:
  // 32 sub-buckets per octave: <= 3.2% relative bucket width.
  static constexpr int kSubBucketBits = 5;
  static constexpr uint64_t kSubBuckets = 1ULL << kSubBucketBits;
  // Largest bucket shift: values up to kMaxValue land in a real bucket;
  // larger values saturate into the top bucket (max() stays exact).
  static constexpr int kMaxShift = 35;
  static constexpr uint64_t kMaxValue =
      (2 * kSubBuckets << kMaxShift) - 1;  // ~2^41 ns =~ 36 simulated minutes
  static constexpr int kNumSlots =
      static_cast<int>(kSubBuckets) * (kMaxShift + 2);

  // Slot index for a value (saturating at the top bucket).
  static int SlotFor(uint64_t value);
  // Smallest value mapping to `slot`.
  static uint64_t SlotLowerBound(int slot);
  // Number of distinct values mapping to `slot` (1 below 2*kSubBuckets).
  static uint64_t SlotWidth(int slot);

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram& other);
  LatencyHistogram& operator=(const LatencyHistogram& other);
  // A moved-from histogram is empty.
  LatencyHistogram(LatencyHistogram&& other) noexcept;
  LatencyHistogram& operator=(LatencyHistogram&& other) noexcept;

  void Record(uint64_t value) { RecordN(value, 1); }
  void RecordN(uint64_t value, uint64_t n);

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  uint64_t max() const { return max_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  // Value at quantile p in [0, 1]: upper bound of the bucket holding the
  // ceil(p * count)-th sample, clamped to [min, max]. 0 when empty.
  // Monotonic in p by construction.
  uint64_t Percentile(double p) const;

  void Merge(const LatencyHistogram& other);
  void Reset();

  // Iterates non-empty buckets in value order: fn(lower_bound, width, count).
  template <typename Fn>
  void ForEachBucket(Fn&& fn) const {
    if (counts_ == nullptr) {
      return;
    }
    for (int s = 0; s < kNumSlots; ++s) {
      if (counts_[s] != 0) {
        fn(SlotLowerBound(s), SlotWidth(s), counts_[s]);
      }
    }
  }

 private:
  // 32-bit slot counters keep the array at ~4.6KB (vs ~9.5KB with 64-bit),
  // which matters because the scheduler walks one histogram pair per tenant
  // on every completion — the smaller footprint roughly halves the cache/TLB
  // pages that path touches. Slots saturate at UINT32_MAX (~4.3e9 samples in
  // one bucket; unreachable in practice) while count_/sum_ stay exact.
  uint64_t count_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  double sum_ = 0.0;
  // kNumSlots counters; null until the first sample (all zero).
  std::unique_ptr<uint32_t[]> counts_;
};

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_HISTOGRAM_H_

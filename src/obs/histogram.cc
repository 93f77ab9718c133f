#include "src/obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace libra::obs {

int LatencyHistogram::SlotFor(uint64_t value) {
  if (value > kMaxValue) {
    value = kMaxValue;
  }
  // Values below kSubBuckets sit in the first (unit-width) octave; for the
  // rest, the octave is the position of the highest set bit.
  const int bits = value < kSubBuckets ? kSubBucketBits + 1
                                       : std::bit_width(value);
  const int shift = bits - 1 - kSubBucketBits;
  return static_cast<int>(kSubBuckets) * shift +
         static_cast<int>(value >> shift);
}

uint64_t LatencyHistogram::SlotLowerBound(int slot) {
  const int shift =
      slot < static_cast<int>(2 * kSubBuckets) ? 0 : slot / kSubBuckets - 1;
  const uint64_t sub = static_cast<uint64_t>(slot) - kSubBuckets * shift;
  return sub << shift;
}

uint64_t LatencyHistogram::SlotWidth(int slot) {
  const int shift =
      slot < static_cast<int>(2 * kSubBuckets) ? 0 : slot / kSubBuckets - 1;
  return 1ULL << shift;
}

LatencyHistogram::LatencyHistogram(const LatencyHistogram& other) {
  *this = other;
}

LatencyHistogram& LatencyHistogram::operator=(const LatencyHistogram& other) {
  if (this == &other) {
    return *this;
  }
  count_ = other.count_;
  min_ = other.min_;
  max_ = other.max_;
  sum_ = other.sum_;
  if (other.counts_ == nullptr) {
    counts_.reset();
  } else {
    if (counts_ == nullptr) {
      counts_ = std::make_unique<uint32_t[]>(kNumSlots);
    }
    std::copy_n(other.counts_.get(), kNumSlots, counts_.get());
  }
  return *this;
}

LatencyHistogram::LatencyHistogram(LatencyHistogram&& other) noexcept {
  *this = std::move(other);
}

LatencyHistogram& LatencyHistogram::operator=(
    LatencyHistogram&& other) noexcept {
  count_ = std::exchange(other.count_, 0);
  min_ = std::exchange(other.min_, UINT64_MAX);
  max_ = std::exchange(other.max_, 0);
  sum_ = std::exchange(other.sum_, 0.0);
  counts_ = std::move(other.counts_);
  return *this;
}

void LatencyHistogram::RecordN(uint64_t value, uint64_t n) {
  if (n == 0) {
    return;
  }
  if (counts_ == nullptr) {
    counts_ = std::make_unique<uint32_t[]>(kNumSlots);  // zeroed
  }
  uint32_t& slot = counts_[SlotFor(value)];
  slot = static_cast<uint32_t>(
      std::min<uint64_t>(static_cast<uint64_t>(slot) + n, UINT32_MAX));
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

uint64_t LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  if (p <= 0.0) {
    return min();
  }
  const double want = std::ceil(p * static_cast<double>(count_));
  const uint64_t rank =
      std::min(count_, static_cast<uint64_t>(std::max(1.0, want)));
  uint64_t cum = 0;
  for (int s = 0; s < kNumSlots; ++s) {
    cum += counts_[s];
    if (cum >= rank) {
      const uint64_t hi = SlotLowerBound(s) + SlotWidth(s) - 1;
      return std::clamp(hi, min(), max_);
    }
  }
  return max_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.counts_ != nullptr) {
    if (counts_ == nullptr) {
      counts_ = std::make_unique<uint32_t[]>(kNumSlots);
    }
    for (int s = 0; s < kNumSlots; ++s) {
      counts_[s] = static_cast<uint32_t>(std::min<uint64_t>(
          static_cast<uint64_t>(counts_[s]) + other.counts_[s], UINT32_MAX));
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::Reset() {
  counts_.reset();
  count_ = 0;
  sum_ = 0.0;
  min_ = UINT64_MAX;
  max_ = 0;
}

}  // namespace libra::obs

// Metrics registry: named latency histograms keyed by (tenant, app request,
// internal op).
//
// Usage discipline (what keeps the hot path allocation-free): callers
// resolve each series ONCE at setup time — GetHistogram() may allocate the
// series node — and keep the returned reference. The
// returned references are stable for the registry's lifetime (node-based
// map storage), so per-request code touches only the pre-registered object.
//
// The tag fields are plain integers rather than the iosched enums so the
// observability layer stays below every other subsystem; callers cast their
// enums in (AppRequest / InternalOp fit in uint8_t by definition).

#ifndef LIBRA_SRC_OBS_REGISTRY_H_
#define LIBRA_SRC_OBS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "src/obs/histogram.h"

namespace libra::obs {

// Series tag: which (tenant, app request, internal op) a metric describes.
// kNoTenant marks node-global series.
inline constexpr uint32_t kNoTenant = UINT32_MAX;

struct SeriesKey {
  uint32_t tenant = kNoTenant;
  uint8_t app = 0;       // iosched::AppRequest
  uint8_t internal = 0;  // iosched::InternalOp

  friend bool operator<(const SeriesKey& a, const SeriesKey& b) {
    return std::tie(a.tenant, a.app, a.internal) <
           std::tie(b.tenant, b.app, b.internal);
  }
  friend bool operator==(const SeriesKey& a, const SeriesKey& b) {
    return std::tie(a.tenant, a.app, a.internal) ==
           std::tie(b.tenant, b.app, b.internal);
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. References stay valid for the registry's lifetime.
  LatencyHistogram& GetHistogram(const std::string& name, SeriesKey key = {});

  // Lookup without creating; nullptr when the series was never registered.
  const LatencyHistogram* FindHistogram(const std::string& name,
                                        SeriesKey key = {}) const;

  // Iteration for export: fn(name, key, metric).
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    for (const auto& [k, v] : histograms_) {
      fn(k.first, k.second, v);
    }
  }

  size_t num_series() const { return histograms_.size(); }

 private:
  using Key = std::pair<std::string, SeriesKey>;
  // std::map: stable addresses across inserts (the registration contract).
  std::map<Key, LatencyHistogram> histograms_;
};

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_REGISTRY_H_

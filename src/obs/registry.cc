#include "src/obs/registry.h"

namespace libra::obs {

LatencyHistogram& MetricsRegistry::GetHistogram(const std::string& name,
                                                SeriesKey key) {
  return histograms_[Key{name, key}];
}

const LatencyHistogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                       SeriesKey key) const {
  const auto it = histograms_.find(Key{name, key});
  return it == histograms_.end() ? nullptr : &it->second;
}

}  // namespace libra::obs

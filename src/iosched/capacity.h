// IO capacity model (paper §4.2).
//
// IO interference makes throughput workload-dependent and unpredictable, so
// Libra provisions against a conservative *floor* of the capacity surface —
// the minimum VOP/s observed across an interference probe grid — rather
// than modeling the surface. The floor is the admission-control bound for
// the resource policy; a live EWMA monitor tracks current throughput so
// violations can be detected and reported to higher-level policies.

#ifndef LIBRA_SRC_IOSCHED_CAPACITY_H_
#define LIBRA_SRC_IOSCHED_CAPACITY_H_

#include <cstdint>

#include "src/common/ewma.h"
#include "src/common/units.h"
#include "src/ssd/calibration.h"
#include "src/ssd/profile.h"

namespace libra::iosched {

// Floor measured for the simulated Intel 320 profile via the Fig. 4 probe
// grid (bench/fig04_interference_heatmaps): the deepest valley sits at
// read-heavy mixes of small reads and small-to-medium writes and measures
// ~19.2 kVOP/s against a ~38.0 kVOP/s interference-free max (51% — the
// paper's physical Intel 320: 18 of 37.5 kop/s, 48%). Configured with a
// safety margin below the measured minimum, as the paper does; it matches
// the paper's 18 kop/s.
inline constexpr double kIntel320VopFloor = 18000.0;

class CapacityModel {
 public:
  explicit CapacityModel(double floor_vops, double ewma_alpha = 0.3)
      : floor_vops_(floor_vops), monitor_(ewma_alpha) {}

  // The provisionable bound: allocations must sum to at most this.
  double provisionable() const { return floor_vops_; }

  // Live monitor: feed per-interval achieved VOP/s.
  void ObserveThroughput(double vops_per_sec) {
    monitor_.Observe(vops_per_sec);
  }

  // Smoothed current throughput (0 until the first observation).
  double current_estimate() const { return monitor_.Value(); }

  // True when recent throughput has fallen below the floor — the
  // pathological case the paper defers to SLAs / higher-level mechanisms.
  bool below_floor() const {
    return monitor_.initialized() && monitor_.Value() < floor_vops_;
  }

 private:
  double floor_vops_;
  Ewma monitor_;
};

struct FloorProbeOptions {
  SimDuration warmup = 300 * kMillisecond;
  SimDuration measure = 1 * kSecond;
};

// Empirically probes the interference floor of `profile`: runs mixed
// read/write workloads over a coarse IOP-size grid through a Libra scheduler
// (8 tenants x 4 workers = queue depth 32, equal allocations, one fixed
// seed) and returns the minimum achieved VOP/s (measured with the exact cost
// model for `table`).
double ProbeInterferenceFloor(const ssd::DeviceProfile& profile,
                              const ssd::CalibrationTable& table,
                              const FloorProbeOptions& options = {});

}  // namespace libra::iosched

#endif  // LIBRA_SRC_IOSCHED_CAPACITY_H_

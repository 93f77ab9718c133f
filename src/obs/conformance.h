// Attribution-conformance estimation: the observed indirect-IO matrix
// q̂_t^{a,i} and its divergence from a tenant's declared profile.
//
// Libra's provisioner prices reservations with per-(app request, internal
// op) resource profiles. Nothing in the aggregate metrics can verify that
// the profile a tenant *declared* at admission matches what actually flows
// through the scheduler; this estimator closes that loop. It accumulates,
// per tenant, the VOPs attributed to every (app, internal) cell plus the
// normalized request counts that form the denominators of q̂^{a,i} = VOPs
// attributed to (a, i) per normalized request of class a. Its one feed is
// iosched::ResourceTracker, which forwards every IO cost and billed request
// it records, the same doubles in the same order — so the per-tenant VOP
// total and request counts reproduce the tracker's bit-for-bit by
// construction.
//
// Field vocabulary mirrors iosched::AppRequest / InternalOp (io_tag.h) as
// raw uint8 switches: obs stays the bottom observability layer.

#ifndef LIBRA_SRC_OBS_CONFORMANCE_H_
#define LIBRA_SRC_OBS_CONFORMANCE_H_

#include <cstdint>
#include <map>
#include <vector>

namespace libra::obs {

// Mirrors iosched::kNumAppRequests / kNumInternalOps.
inline constexpr int kAttrApps = 4;      // none, GET, PUT, SCAN
inline constexpr int kAttrInternal = 4;  // direct, FLUSH, COMPACT, REPL

// One tenant's cumulative attribution state. A value type: a steady-state
// window is the element-wise difference of two snapshots (Diff below).
struct AttributionMatrix {
  double vops[kAttrApps][kAttrInternal] = {};  // attributed VOPs per cell
  double norm_requests[kAttrApps] = {};        // normalized requests served
  // Arrival-order accumulation of every attributed cost — bitwise equal to
  // the ResourceTracker's per-tenant VOP sum (the cell sums above re-order
  // the additions and may differ in the last ulp).
  double total_vops = 0.0;

  // Observed q̂^{a,i}: VOPs of (app, internal) per normalized request of
  // `app`; 0 when the tenant has served no requests of that class.
  double Q(int app, int internal) const {
    const double n = norm_requests[app];
    return n > 0.0 ? vops[app][internal] / n : 0.0;
  }
};

// later - earlier, element-wise (windowed observation between snapshots).
AttributionMatrix Diff(const AttributionMatrix& later,
                       const AttributionMatrix& earlier);

class AttributionEstimator {
 public:
  // One attributed IO cost (once per chunk, or once per share of a shared
  // chunk, with the exact cost the tracker records).
  void RecordIo(uint32_t tenant, uint8_t app, uint8_t internal, double vops) {
    AttributionMatrix& m = tenants_[tenant];
    m.vops[app][internal] += vops;
    m.total_vops += vops;
  }

  // One served app request in normalized (1KB) units.
  void RecordRequest(uint32_t tenant, uint8_t app, double normalized) {
    tenants_[tenant].norm_requests[app] += normalized;
  }

  // nullptr until the tenant has recorded anything.
  const AttributionMatrix* Of(uint32_t tenant) const {
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? nullptr : &it->second;
  }

  std::vector<uint32_t> tenants() const {
    std::vector<uint32_t> out;
    out.reserve(tenants_.size());
    for (const auto& [t, m] : tenants_) {
      out.push_back(t);
    }
    return out;
  }

 private:
  // std::map: deterministic iteration order for JSON export.
  std::map<uint32_t, AttributionMatrix> tenants_;
};

// The per-request VOP matrix a tenant declared at admission — the profile
// the provisioner assumed when pricing its reservation.
struct DeclaredAttribution {
  bool declared = false;
  double q[kAttrApps][kAttrInternal] = {};

  double& at(int app, int internal) { return q[app][internal]; }
};

// Worst-cell comparison of observed q̂ against a declaration.
struct ConformanceReport {
  // max over declared-relevant cells of |observed - declared| /
  // max(declared, min_declared); 0 when nothing is comparable.
  double divergence = 0.0;
  int worst_app = 0;
  int worst_internal = 0;
  double worst_observed = 0.0;
  double worst_declared = 0.0;

  bool conformant(double tolerance) const { return divergence <= tolerance; }
};

// Compares cell-wise. Cells where both sides are below `min_declared`
// (VOPs per normalized request) are skipped as noise; an undeclared matrix
// reports zero divergence (nothing was assumed, nothing can diverge).
ConformanceReport CompareAttribution(const AttributionMatrix& observed,
                                     const DeclaredAttribution& declared,
                                     double min_declared = 0.05);

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_CONFORMANCE_H_

// Per-tenant app-request resource profiles (paper §4.1).
//
// The tracker accumulates tagged VOP consumption within a policy interval:
//   u_t^a — VOPs consumed directly by app-request type a,
//   u_t^i — VOPs consumed by internal operation i (FLUSH, COMPACT),
//   s_t^a — normalized (1KB) app requests executed,
//   s_t^i — internal operations executed,
//   e_t^{a,i} — internal-op triggers attributed to app-request a.
// At each interval roll it folds these into EWMAs:
//   q_t^a   = EWMA(u_t^a / s_t^a)         direct VOPs per normalized request
//   q_t^i   = EWMA(u_t^i / s_t^i)         VOPs per internal op
//   q_t^{a,i} = q_t^i * (e / s_a)         indirect VOPs per normalized request
// For sporadic operations (COMPACT can take many intervals), the trigger
// rate e/s is normalized by requests accumulated since the last trigger,
// and partial resource consumption of in-flight operations is attributed as
// it happens.
//
// The full profile (paper):
//   profile_t^a = q_t^a + sum_i q_t^{a,i}
// is the VOP price of one normalized request, used by the resource policy
// to provision allocations.
//
// The tracker is the node's only recording entry point for IO costs and
// served requests. When tracing is on, the scheduler attaches its span
// collector's obs::AttributionEstimator, and every RecordIo / RecordIoShare
// / RecordAppRequest forwards the same doubles to it in the same order, so
// the observed q̂^{a,i} matrix is a decomposition of this ledger by
// construction rather than a parallel copy kept in step by hand.

#ifndef LIBRA_SRC_IOSCHED_RESOURCE_TRACKER_H_
#define LIBRA_SRC_IOSCHED_RESOURCE_TRACKER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/ewma.h"
#include "src/iosched/io_tag.h"
#include "src/obs/conformance.h"
#include "src/ssd/io_types.h"

namespace libra::iosched {

// Cumulative per-tenant IO counters (for throughput measurement in the
// evaluation harnesses; never reset).
struct TenantIoStats {
  double vops = 0.0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;

  uint64_t total_ops() const { return read_ops + write_ops; }
  uint64_t total_bytes() const { return read_bytes + write_bytes; }
};

// One app-request class's profile with per-component breakdown (Fig. 12
// bottom: PUT cost split into direct, FLUSH, and COMPACT components).
struct AppRequestProfile {
  double direct = 0.0;                      // q^a
  double indirect[kNumInternalOps] = {0.0};  // q^{a,i}, indexed by InternalOp

  double total() const {
    double t = direct;
    for (double v : indirect) {
      t += v;
    }
    return t;
  }
};

class ResourceTracker {
 public:
  // alpha: EWMA weight for profile smoothing.
  explicit ResourceTracker(double ewma_alpha = 0.3);

  // Mirrors every later IO cost and served request into `estimator` (the
  // span collector's; nullptr detaches). Not owned.
  void AttachAttribution(obs::AttributionEstimator* estimator) {
    attribution_ = estimator;
  }

  // --- recording (hot path) ---

  // Called by the scheduler for every completed IO chunk.
  void RecordIo(const IoTag& tag, ssd::IoType type, uint32_t size_bytes,
                double vop_cost);

  // Called for one contributor's slice of a shared (batched) IO chunk.
  // Accounting is identical to RecordIo — the slice's bytes and its exact
  // pre-split VOP cost land on the contributor's (tenant, app, internal-op)
  // class, so profiles and the audit trail stay truthful under batching —
  // plus cumulative shared-IO counters so tests and demos can measure how
  // much traffic rode merged IOPs.
  void RecordIoShare(const IoTag& tag, ssd::IoType type, uint32_t size_bytes,
                     double vop_cost);

  // Called by the serving layer once per billable app request: the one
  // place a request enters the normalized (1KB) ledger.
  void RecordAppRequest(TenantId tenant, AppRequest app, uint64_t size_bytes);

  // Called by the persistence engine when app-request activity triggers an
  // internal operation (e.g. a PUT fills the WAL and starts a FLUSH).
  void RecordTrigger(TenantId tenant, AppRequest origin, InternalOp op);

  // Called when an internal operation finishes (defines s_t^i).
  void RecordInternalOpDone(TenantId tenant, InternalOp op);

  // --- interval roll (policy path) ---

  // Folds the current interval's counters into the EWMAs and clears them.
  void Roll();

  // --- queries ---

  // Profile of one request class; `fallback_direct` seeds classes with no
  // observations yet (e.g. the cost-model price of the object IO itself).
  AppRequestProfile Profile(TenantId tenant, AppRequest app,
                            double fallback_direct = 0.0) const;

  // Cumulative IO stats (all tags) for a tenant.
  const TenantIoStats& Stats(TenantId tenant) const;

  // Cumulative VOPs for one (app request, internal op, IO direction) class
  // — the Fig. 2 stacked-consumption breakdown (GET read IO, PUT write IO,
  // FLUSH read/write IO, COMPACT read/write IO).
  double VopsBy(TenantId tenant, AppRequest app, InternalOp internal,
                ssd::IoType type) const;

  // Smoothed mean request size in bytes for a class; 0 until observed.
  // Used for object-size-only (no-profile) pricing.
  double MeanRequestSize(TenantId tenant, AppRequest app) const;

  // Cumulative normalized requests executed (throughput measurement).
  double NormalizedRequestsTotal(TenantId tenant, AppRequest app) const;

  // Total VOPs consumed across all tenants since construction.
  double total_vops() const { return total_vops_; }

  // Cumulative slices recorded via RecordIoShare and the bytes they
  // covered (0 when batching is off — the default).
  uint64_t shared_io_shares() const { return shared_io_shares_; }
  uint64_t shared_io_bytes() const { return shared_io_bytes_; }

  std::vector<TenantId> tenants() const;

 private:
  struct AppClass {
    double u = 0.0;        // interval VOPs
    double s = 0.0;        // interval normalized requests
    double bytes = 0.0;    // interval request bytes
    double requests = 0.0; // interval request count (not normalized)
    double s_total = 0.0;  // cumulative normalized requests (never reset)
    Ewma q;
    Ewma mean_size;
    explicit AppClass(double alpha) : q(alpha), mean_size(alpha) {}
  };
  struct InternalClass {
    double u = 0.0;    // interval VOPs
    double ops = 0.0;  // interval completed ops
    Ewma q;
    explicit InternalClass(double alpha) : q(alpha) {}
  };
  struct TriggerClass {
    double triggers = 0.0;  // since-last-roll triggers
    double s_accum = 0.0;   // normalized requests since last observed trigger
    Ewma rate;              // triggers per normalized request
    explicit TriggerClass(double alpha) : rate(alpha) {}
  };
  struct Tenant {
    explicit Tenant(double alpha);
    std::vector<AppClass> app;            // by AppRequest
    std::vector<InternalClass> internal;  // by InternalOp
    std::vector<TriggerClass> trig;       // [app][internal] flattened
    TenantIoStats stats;
    // Cumulative VOPs by [app][internal][io type].
    double vops_by[kNumAppRequests][kNumInternalOps][2] = {};
  };

  Tenant& GetTenant(TenantId id);

  double alpha_;
  obs::AttributionEstimator* attribution_ = nullptr;
  std::unordered_map<TenantId, Tenant> tenants_;
  TenantIoStats empty_stats_;
  double total_vops_ = 0.0;
  uint64_t shared_io_shares_ = 0;
  uint64_t shared_io_bytes_ = 0;
};

}  // namespace libra::iosched

#endif  // LIBRA_SRC_IOSCHED_RESOURCE_TRACKER_H_

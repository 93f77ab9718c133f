#include "src/iosched/resource_policy.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

namespace libra::iosched {

namespace {

// Bounded provisioning audit log: the newest records kept.
constexpr size_t kAuditCapacity = 512;
// SLA violation slack: an interval violates when achieved VOP/s falls below
// (1 - kSlaTolerance) x the priced reservation while the tenant had pending
// demand (see obs::SlaMonitor).
constexpr double kSlaTolerance = 0.05;
// Demand gate for those violations: the tenant must have had queued or
// in-flight work for at least this fraction of the interval. The guarantee
// is conditional on offered load — a tenant whose own load dipped (workers
// blocked elsewhere, e.g. on a recovering shard) did not have its
// reservation violated by this node.
constexpr double kSlaDemandFraction = 0.5;

}  // namespace

ResourcePolicy::ResourcePolicy(sim::EventLoop& loop, IoScheduler& scheduler,
                               CapacityModel& capacity, PolicyOptions options)
    : loop_(loop),
      scheduler_(scheduler),
      capacity_(capacity),
      options_(options),
      audit_log_(kAuditCapacity) {
  assert(options_.interval > 0);
}

ResourcePolicy::~ResourcePolicy() { Stop(); }

void ResourcePolicy::SetReservation(TenantId tenant, Reservation r) {
#ifndef NDEBUG
  for (int a = kFirstAppRequest; a < kNumAppRequests; ++a) {
    assert(r.rps[a] >= 0.0);
  }
#endif
  assert(r.rps[static_cast<int>(AppRequest::kNone)] == 0.0);
  reservations_[tenant] = r;
}

Reservation ResourcePolicy::GetReservation(TenantId tenant) const {
  const auto it = reservations_.find(tenant);
  return it == reservations_.end() ? Reservation{} : it->second;
}

void ResourcePolicy::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  last_roll_time_ = loop_.Now();
  last_total_vops_ = scheduler_.tracker().total_vops();
  // Provision immediately from fallback prices, then on every interval.
  RunIntervalStep();
  auto reschedule = [this](auto&& self) -> void {
    pending_event_ = loop_.ScheduleAfter(options_.interval, [this, self] {
      if (!running_) {
        return;
      }
      RunIntervalStep();
      self(self);
    });
  };
  reschedule(reschedule);
}

void ResourcePolicy::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (pending_event_ != 0) {
    loop_.Cancel(pending_event_);
    pending_event_ = 0;
  }
}

double ResourcePolicy::ObjectSizePrice(TenantId tenant, AppRequest app) const {
  const CostModel& model = scheduler_.cost_model();
  ssd::IoType type = ssd::IoType::kRead;
  switch (app) {
    case AppRequest::kGet:
    case AppRequest::kScan:
      type = ssd::IoType::kRead;
      break;
    case AppRequest::kPut:
      type = ssd::IoType::kWrite;
      break;
    case AppRequest::kNone:
      break;  // unattributed classes are never priced; kRead is inert
  }
  double mean = scheduler_.tracker().MeanRequestSize(tenant, app);
  if (mean <= 0.0) {
    mean = 1024.0;  // nothing observed yet: price a 1KB object
  }
  // VOPs for one object IO of the mean size, per normalized request.
  const uint32_t size = static_cast<uint32_t>(std::max(1.0, mean));
  return model.Cost(type, size) / NormalizedRequests(size);
}

double ResourcePolicy::PriceOf(TenantId tenant, AppRequest app) const {
  const double object_price = ObjectSizePrice(tenant, app);
  if (options_.mode == ProfileMode::kObjectSizeOnly) {
    return object_price;
  }
  AppRequestProfile p = scheduler_.tracker().Profile(tenant, app, object_price);
  // Re-replication catch-up is membership-event work, not steady-state
  // per-request amplification like FLUSH/COMPACT: its VOPs are charged to
  // the tenant's allocation as they happen, but baking them into the
  // per-request price would overbook the node for intervals after every
  // recovery and scale down the surviving tenants' allocations.
  p.indirect[static_cast<size_t>(InternalOp::kReplicate)] = 0.0;
  return p.total();
}

AppRequestProfile ResourcePolicy::ProfileOf(TenantId tenant,
                                            AppRequest app) const {
  return scheduler_.tracker().Profile(tenant, app,
                                      ObjectSizePrice(tenant, app));
}

void ResourcePolicy::RunIntervalStep() {
  ResourceTracker& tracker = scheduler_.tracker();

  // Feed the live capacity monitor with the interval's achieved VOP/s.
  const SimTime now = loop_.Now();
  const double elapsed_secs =
      now > last_roll_time_ ? ToSeconds(now - last_roll_time_) : 0.0;
  if (elapsed_secs > 0.0) {
    const double vops = tracker.total_vops();
    capacity_.ObserveThroughput((vops - last_total_vops_) / elapsed_secs);
    last_total_vops_ = vops;
    last_roll_time_ = now;
  }

  tracker.Roll();

  // Price every reservation under the current profiles: the reserved rate
  // of every application request class times its per-class VOP price.
  std::map<TenantId, double> required;
  double total = 0.0;
  for (const auto& [tenant, res] : reservations_) {
    double r = 0.0;
    for (int a = kFirstAppRequest; a < kNumAppRequests; ++a) {
      if (res.rps[a] > 0.0) {
        r += res.rps[a] * PriceOf(tenant, static_cast<AppRequest>(a));
      }
    }
    required[tenant] = r;
    total += r;
  }

  // Overbooking: scale every allocation proportionally into the floor and
  // notify the higher-level policy.
  double scale = 1.0;
  const double cap = capacity_.provisionable();
  const bool overbooked = total > cap && total > 0.0;
  if (overbooked) {
    scale = cap / total;
    if (overflow_cb_) {
      overflow_cb_(OverflowEvent{now, total, cap, scale});
    }
  }
  for (const auto& [tenant, r] : required) {
    scheduler_.SetAllocation(tenant, r * scale);
  }

  // SLA conformance: did each tenant achieve its priced reservation over the
  // interval that just ended? Demand-gated — an idle tenant below its
  // reservation is not a violation, a backlogged one is. Demand is measured
  // over the interval (busy time), not sampled at its end: the guarantee is
  // conditional on offered load, and one in-flight request at the sampling
  // instant must not turn a tenant-side load dip into a violation.
  std::map<TenantId, std::pair<double, bool>> achieved;
  if (elapsed_secs > 0.0) {
    for (const auto& [tenant, res] : reservations_) {
      const double vops_now = tracker.Stats(tenant).vops;
      double& last = last_tenant_vops_[tenant];
      const double rate = (vops_now - last) / elapsed_secs;
      last = vops_now;
      const double busy_secs = ToSeconds(scheduler_.ConsumeDemandTime(tenant));
      const bool demand_pending =
          busy_secs >= kSlaDemandFraction * elapsed_secs;
      const bool violated =
          sla_.RecordInterval(tenant, now, required[tenant], rate,
                              demand_pending, kSlaTolerance);
      achieved[tenant] = {rate, violated};
    }
  }

  // Audit trail: everything this step read and decided, per tenant.
  obs::AuditRecord rec;
  rec.time_ns = now;
  rec.total_required_vops = total;
  rec.capacity_floor_vops = cap;
  rec.scale = scale;
  rec.overbooked = overbooked;
  rec.tenants.reserve(reservations_.size());
  for (const auto& [tenant, res] : reservations_) {
    obs::AuditTenantEntry e;
    e.tenant = tenant;
    for (int a = kFirstAppRequest; a < kNumAppRequests; ++a) {
      const AppRequest app = static_cast<AppRequest>(a);
      const AppRequestProfile p = ProfileOf(tenant, app);
      e.reserved_rps[a] = res.rps[a];
      e.profile_direct[a] = p.direct;
      e.profile_flush[a] = p.indirect[static_cast<int>(InternalOp::kFlush)];
      e.profile_compact[a] = p.indirect[static_cast<int>(InternalOp::kCompact)];
      e.price[a] = PriceOf(tenant, app);
    }
    if (const auto cit = compaction_policies_.find(tenant);
        cit != compaction_policies_.end()) {
      e.compaction_policy = cit->second;
    }
    e.required_vops = required[tenant];
    e.granted_vops = required[tenant] * scale;
    const auto ach = achieved.find(tenant);
    if (ach != achieved.end()) {
      e.achieved_vops = ach->second.first;
      e.sla_violated = ach->second.second;
    }
    rec.tenants.push_back(e);
  }
  audit_log_.Append(std::move(rec));
}

}  // namespace libra::iosched

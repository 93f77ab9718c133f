#include "src/iosched/resource_tracker.h"

#include <cassert>

namespace libra::iosched {

ResourceTracker::Tenant::Tenant(double alpha) {
  app.reserve(kNumAppRequests);
  for (int i = 0; i < kNumAppRequests; ++i) {
    app.emplace_back(alpha);
  }
  internal.reserve(kNumInternalOps);
  for (int i = 0; i < kNumInternalOps; ++i) {
    internal.emplace_back(alpha);
  }
  trig.reserve(kNumAppRequests * kNumInternalOps);
  for (int i = 0; i < kNumAppRequests * kNumInternalOps; ++i) {
    trig.emplace_back(alpha);
  }
}

ResourceTracker::ResourceTracker(double ewma_alpha) : alpha_(ewma_alpha) {}

ResourceTracker::Tenant& ResourceTracker::GetTenant(TenantId id) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    it = tenants_.emplace(id, Tenant(alpha_)).first;
  }
  return it->second;
}

void ResourceTracker::RecordIo(const IoTag& tag, ssd::IoType type,
                               uint32_t size_bytes, double vop_cost) {
  Tenant& t = GetTenant(tag.tenant);
  total_vops_ += vop_cost;
  t.stats.vops += vop_cost;
  if (type == ssd::IoType::kRead) {
    ++t.stats.read_ops;
    t.stats.read_bytes += size_bytes;
  } else {
    ++t.stats.write_ops;
    t.stats.write_bytes += size_bytes;
  }
  if (tag.internal != InternalOp::kNone) {
    t.internal[static_cast<int>(tag.internal)].u += vop_cost;
  } else {
    t.app[static_cast<int>(tag.app)].u += vop_cost;
  }
  t.vops_by[static_cast<int>(tag.app)][static_cast<int>(tag.internal)]
          [static_cast<int>(type)] += vop_cost;
  if (attribution_ != nullptr) {
    attribution_->RecordIo(tag.tenant, static_cast<uint8_t>(tag.app),
                           static_cast<uint8_t>(tag.internal), vop_cost);
  }
}

void ResourceTracker::RecordIoShare(const IoTag& tag, ssd::IoType type,
                                    uint32_t size_bytes, double vop_cost) {
  ++shared_io_shares_;
  shared_io_bytes_ += size_bytes;
  RecordIo(tag, type, size_bytes, vop_cost);
}

void ResourceTracker::RecordAppRequest(TenantId tenant, AppRequest app,
                                       uint64_t size_bytes) {
  Tenant& t = GetTenant(tenant);
  const double n = NormalizedRequests(size_bytes);
  AppClass& cls = t.app[static_cast<int>(app)];
  cls.s += n;
  cls.s_total += n;
  cls.bytes += static_cast<double>(size_bytes);
  cls.requests += 1.0;
  // Every trigger class originating from this request type sees the new
  // requests in its since-last-trigger accumulator.
  for (int i = 0; i < kNumInternalOps; ++i) {
    t.trig[static_cast<int>(app) * kNumInternalOps + i].s_accum += n;
  }
  if (attribution_ != nullptr) {
    attribution_->RecordRequest(tenant, static_cast<uint8_t>(app), n);
  }
}

void ResourceTracker::RecordTrigger(TenantId tenant, AppRequest origin,
                                    InternalOp op) {
  Tenant& t = GetTenant(tenant);
  t.trig[static_cast<int>(origin) * kNumInternalOps + static_cast<int>(op)]
      .triggers += 1.0;
}

void ResourceTracker::RecordInternalOpDone(TenantId tenant, InternalOp op) {
  GetTenant(tenant).internal[static_cast<int>(op)].ops += 1.0;
}

void ResourceTracker::Roll() {
  for (auto& [id, t] : tenants_) {
    for (auto& a : t.app) {
      if (a.s > 0.0) {
        a.q.Observe(a.u / a.s);
      }
      if (a.requests > 0.0) {
        a.mean_size.Observe(a.bytes / a.requests);
      }
      a.u = 0.0;
      a.s = 0.0;
      a.bytes = 0.0;
      a.requests = 0.0;
    }
    for (auto& i : t.internal) {
      if (i.ops > 0.0) {
        i.q.Observe(i.u / i.ops);
        i.u = 0.0;
        i.ops = 0.0;
      }
      // If an op is still in flight (u > 0 but ops == 0), leave its partial
      // consumption accumulating: it is attributed when the op completes,
      // normalized by the full span of requests since the last trigger.
    }
    for (auto& tr : t.trig) {
      if (tr.triggers > 0.0 && tr.s_accum > 0.0) {
        tr.rate.Observe(tr.triggers / tr.s_accum);
        tr.triggers = 0.0;
        tr.s_accum = 0.0;
      }
      // Without a trigger this interval, s_accum keeps growing so that a
      // sporadic operation's rate reflects the full inter-trigger span.
    }
  }
}

AppRequestProfile ResourceTracker::Profile(TenantId tenant, AppRequest app,
                                           double fallback_direct) const {
  AppRequestProfile p;
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    p.direct = fallback_direct;
    return p;
  }
  const Tenant& t = it->second;
  const AppClass& a = t.app[static_cast<int>(app)];
  p.direct = a.q.initialized() ? a.q.Value() : fallback_direct;
  for (int i = 1; i < kNumInternalOps; ++i) {
    const InternalClass& ic = t.internal[i];
    const TriggerClass& tc = t.trig[static_cast<int>(app) * kNumInternalOps + i];
    if (ic.q.initialized() && tc.rate.initialized()) {
      p.indirect[i] = ic.q.Value() * tc.rate.Value();
    }
  }
  return p;
}

double ResourceTracker::VopsBy(TenantId tenant, AppRequest app,
                               InternalOp internal, ssd::IoType type) const {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return 0.0;
  }
  return it->second.vops_by[static_cast<int>(app)][static_cast<int>(internal)]
                           [static_cast<int>(type)];
}

double ResourceTracker::MeanRequestSize(TenantId tenant, AppRequest app) const {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return 0.0;
  }
  const AppClass& cls = it->second.app[static_cast<int>(app)];
  // Prefer the smoothed value; fall back to the live interval.
  if (cls.mean_size.initialized()) {
    return cls.mean_size.Value();
  }
  return cls.requests > 0.0 ? cls.bytes / cls.requests : 0.0;
}

double ResourceTracker::NormalizedRequestsTotal(TenantId tenant,
                                                AppRequest app) const {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return 0.0;
  }
  return it->second.app[static_cast<int>(app)].s_total;
}

const TenantIoStats& ResourceTracker::Stats(TenantId tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? empty_stats_ : it->second.stats;
}

std::vector<TenantId> ResourceTracker::tenants() const {
  std::vector<TenantId> out;
  out.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) {
    out.push_back(id);
  }
  return out;
}

}  // namespace libra::iosched

#include "src/kv/storage_node.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "src/sim/sync.h"

namespace libra::kv {

using iosched::AppRequest;
using iosched::Reservation;
using iosched::TenantId;

// The scheduler's app-request vocabulary and the observability layer's
// attribution-matrix axis must stay in lockstep: per-class reservations,
// audit rows, and q̂^{a,i} columns are all indexed by the same codes.
static_assert(obs::kAttrApps == iosched::kNumAppRequests,
              "add new AppRequest classes to obs::kAttrApps too");

StorageNode::StorageNode(sim::EventLoop& loop, NodeOptions options)
    : loop_(loop),
      options_(std::move(options)),
      device_(loop_, options_.device_profile, options_.device_options),
      scheduler_(loop_, device_,
                 iosched::MakeCostModel(options_.cost_model,
                                        options_.calibration),
                 options_.scheduler_options),
      fs_(scheduler_, device_),
      capacity_(options_.capacity_floor_vops),
      policy_(loop_, scheduler_, capacity_, options_.policy_options) {
  assert(!options_.calibration.sizes_kb.empty() &&
         "NodeOptions.calibration must be populated (run ssd::Calibrate)");
  if (options_.enable_cache) {
    cache_ = std::make_unique<LruCache>(options_.cache_bytes);
  }
  if (options_.lsm_options.block_cache_bytes > 0) {
    // One cache, one budget, for every tenant partition on the node; the
    // partitions get it via TenantLsmOptions' shared_block_cache pointer.
    block_cache_ = std::make_unique<lsm::BlockCache>(
        options_.lsm_options.block_cache_bytes);
  }
  if (options_.prefill_bytes > 0) {
    device_.Prefill(options_.prefill_bytes);
  }
}

namespace {

// Negative or non-finite rates are malformed; zero is legal (best-effort
// tenant, provisioned purely by work conservation). Checked per class so
// new app-request classes are validated without new code.
Status ValidateReservation(const Reservation& r) {
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    if (!(r.rps[a] >= 0.0)) {
      return Status::InvalidArgument(
          "reservation rates must be finite and non-negative (" +
          std::string(iosched::AppRequestName(static_cast<AppRequest>(a))) +
          "=" + std::to_string(r.rps[a]) + ")");
    }
  }
  return Status::Ok();
}

}  // namespace

lsm::LsmOptions StorageNode::TenantLsmOptions(TenantId tenant) const {
  lsm::LsmOptions opt = options_.lsm_options;
  opt.compaction_policy =
      static_cast<lsm::CompactionPolicy>(policy_.CompactionPolicyOf(tenant));
  if (block_cache_ != nullptr) {
    opt.shared_block_cache = block_cache_.get();
  }
  return opt;
}

Status StorageNode::AddTenant(TenantId tenant, Reservation reservation,
                              obs::DeclaredAttribution declared,
                              lsm::CompactionPolicy compaction) {
  if (partitions_.count(tenant) > 0) {
    return Status::AlreadyExists("tenant exists");
  }
  if (Status s = ValidateReservation(reservation); !s.ok()) {
    return s;
  }
  // Record the declared policy first: TenantLsmOptions reads it back, and
  // the resource policy stamps it on this tenant's audit rows.
  policy_.SetCompactionPolicy(tenant, static_cast<uint8_t>(compaction));
  auto db = std::make_unique<lsm::LsmDb>(loop_, fs_, scheduler_, tenant,
                                         "tenant_" + std::to_string(tenant),
                                         TenantLsmOptions(tenant));
  if (Status s = db->Open(); !s.ok()) {
    return s;
  }
  partitions_.emplace(tenant, std::move(db));
  policy_.SetReservation(tenant, reservation);
  if (declared.declared) {
    policy_.SetDeclaredProfile(tenant, declared);
  }
  // Resolve the tenant's latency series now; the request path only touches
  // these pre-registered histograms (see RequestLatency).
  RequestLatency& rl = request_latency_[tenant];
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    rl.by_app[a] = &metrics_.GetHistogram("app_request_latency_ns",
                                          {tenant, static_cast<uint8_t>(a), 0});
  }
  return Status::Ok();
}

Status StorageNode::UpdateReservation(TenantId tenant,
                                      Reservation reservation) {
  if (partitions_.count(tenant) == 0) {
    return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  if (Status s = ValidateReservation(reservation); !s.ok()) {
    return s;
  }
  policy_.SetReservation(tenant, reservation);
  return Status::Ok();
}

void StorageNode::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  ++crashes_;
  // Remember whether the policy was running so Restart() doesn't resurrect
  // a periodic timer on a node that was never Start()ed (tests and
  // harnesses that drive provisioning manually rely on a draining Run()).
  policy_was_running_ = policy_.running();
  policy_.Stop();
  for (auto& [tenant, db] : partitions_) {
    db->Kill();
    graveyard_.push_back(std::move(db));
  }
  partitions_.clear();
}

sim::Task<Status> StorageNode::Restart() {
  if (!crashed_) {
    co_return Status::FailedPrecondition("node is not crashed");
  }
  // Let every killed coroutine observe dead_ and unwind before the DBs
  // (whose members they reference) are destroyed.
  for (;;) {
    bool quiescent = true;
    for (const auto& db : graveyard_) {
      if (!db->Quiescent()) {
        quiescent = false;
        break;
      }
    }
    if (quiescent) {
      break;
    }
    co_await sim::SleepFor(loop_, kMillisecond);
  }
  // Destroying the dead incarnations drops their table handles, deleting
  // the installed SST files: with no manifest, the table metadata died
  // with the process, so flushed data is unrecoverable locally (the
  // cluster layer re-replicates it). WAL files survive on the fs.
  graveyard_.clear();
  crashed_ = false;
  // The policy kept every tenant's reservation and declared profile;
  // request_latency_ kept the tenant set. Reopen each partition over its
  // old prefix — Open() replays the surviving WALs.
  for (const auto& [tenant, unused] : request_latency_) {
    auto db = std::make_unique<lsm::LsmDb>(loop_, fs_, scheduler_, tenant,
                                           "tenant_" + std::to_string(tenant),
                                           TenantLsmOptions(tenant));
    if (Status s = db->Open(); !s.ok()) {
      co_return s;
    }
    const lsm::LsmStats st = db->stats();
    recovery_wal_files_ += st.recovered_wal_files;
    recovery_replay_records_ += st.recovered_records;
    recovery_replay_bytes_ += st.recovered_bytes;
    partitions_.emplace(tenant, std::move(db));
  }
  ++restarts_;
  if (policy_was_running_) {
    policy_.Start();
  }
  co_return Status::Ok();
}

lsm::LsmDb* StorageNode::partition(TenantId tenant) {
  const auto it = partitions_.find(tenant);
  return it == partitions_.end() ? nullptr : it->second.get();
}

std::vector<TenantId> StorageNode::tenants() const {
  std::vector<TenantId> out;
  out.reserve(partitions_.size());
  for (const auto& [tenant, db] : partitions_) {
    out.push_back(tenant);
  }
  return out;
}

StorageNode::Request StorageNode::Admit(TenantId tenant, TraceContext caller) {
  Request r;
  r.tenant = tenant;
  if (crashed_) {
    r.status = Status::Unavailable("node crashed");
    return r;
  }
  r.db = partition(tenant);
  if (r.db == nullptr) {
    r.status = Status::NotFound("unknown tenant");
    return r;
  }
  // The node-level span: a child of the caller's (cluster) span when one
  // rode in, none when the caller's own draw sampled the request out, else
  // a new root trace honoring 1/N sampling. It stays invalid when tracing
  // is off or the request sampled out — every downstream layer then runs
  // untraced.
  if (obs::SpanCollector* spans = scheduler_.spans(); spans != nullptr) {
    if (caller.valid()) {
      r.ctx = spans->MintChild(caller);
      r.parent = caller.span_id;
    } else if (!caller.sampled_out()) {
      r.ctx = spans->MintTrace();
    }
  }
  r.start = loop_.Now();
  return r;
}

void StorageNode::Finish(const Request& r, AppRequest app, uint64_t bytes,
                         bool billable, obs::SpanKind kind,
                         TraceContext link) {
  if (billable) {
    // Normalized app-request accounting happens at the protocol layer
    // (§2.2): reservations are in size-normalized 1KB requests. The
    // tracker mirrors the same normalization into the attribution
    // estimator, so the observed q̂ denominator stays exact.
    tracker().RecordAppRequest(r.tenant, app, bytes);
  }
  const SimTime end = loop_.Now();
  request_latency_[r.tenant].by_app[static_cast<int>(app)]->Record(
      static_cast<uint64_t>(end - r.start));
  obs::SpanCollector* spans = scheduler_.spans();
  if (spans == nullptr || !r.ctx.valid()) {
    return;
  }
  obs::SpanRecord rec;
  rec.trace_id = r.ctx.trace_id;
  rec.span_id = r.ctx.span_id;
  rec.parent_span = r.parent;
  rec.kind = kind;
  rec.app = static_cast<uint8_t>(app);
  rec.tenant = r.tenant;
  rec.start_ns = r.start;
  rec.end_ns = end;
  rec.bytes = bytes;
  rec.links.Add(link);
  spans->Record(rec);
}

sim::Task<Status> StorageNode::Put(TenantId tenant, const std::string& key,
                                   const std::string& value, TraceContext ctx) {
  return Write(tenant, key, &value, ctx);
}

sim::Task<Status> StorageNode::Delete(TenantId tenant, const std::string& key,
                                      TraceContext ctx) {
  return Write(tenant, key, nullptr, ctx);
}

sim::Task<Status> StorageNode::Write(TenantId tenant, const std::string& key,
                                     const std::string* value,
                                     TraceContext ctx) {
  const Request r = Admit(tenant, ctx);
  if (!r.status.ok()) {
    co_return r.status;
  }
  Status s;
  if (value != nullptr) {
    s = co_await r.db->Put(key, *value, r.ctx);
  } else {
    s = co_await r.db->Delete(key, r.ctx);
  }
  if (s.ok() && cache_ != nullptr) {
    if (value != nullptr) {
      cache_->Put(key, *value);  // write-through
    } else {
      cache_->Erase(key);
    }
  }
  // A DELETE is a PUT-class request billed by its key bytes.
  Finish(r, AppRequest::kPut, value != nullptr ? value->size() : key.size(),
         s.ok());
  co_return s;
}

sim::Task<Result<std::string>> StorageNode::Get(TenantId tenant,
                                                const std::string& key,
                                                TraceContext ctx) {
  const Request r = Admit(tenant, ctx);
  if (!r.status.ok()) {
    co_return Result<std::string>(r.status);
  }
  std::optional<std::string> hit;
  if (cache_ != nullptr) {
    hit = cache_->Get(key);
  }
  // With read coalescing on, a miss either joins the in-flight lookup of
  // the same (tenant, key) or claims the flight for itself.
  std::pair<TenantId, std::string> flight_key;
  GetFlight* joined = nullptr;
  if (!hit.has_value() && options_.enable_read_coalescing) {
    flight_key = {tenant, key};
    if (const auto it = inflight_gets_.find(flight_key);
        it != inflight_gets_.end()) {
      joined = &it->second;
    } else {
      inflight_gets_.emplace(flight_key, GetFlight{r.ctx, {}});
    }
  }
  Result<std::string> out;
  obs::SpanKind kind = obs::SpanKind::kRequest;
  TraceContext leader_ctx;
  if (hit.has_value()) {
    // Cache hits consume no IO; they still count as served requests.
    out = Result<std::string>(std::move(*hit));
  } else if (joined != nullptr) {
    // Follower: ride the leader's in-flight lookup. The request is still
    // individually billed and its latency recorded — only the IO is
    // shared. Its span links the leader's lookup it rode.
    ++coalesced_gets_;
    kind = obs::SpanKind::kCoalescedGet;
    leader_ctx = joined->leader_ctx;
    sim::OneShot<Result<std::string>> done(loop_);
    joined->waiters.push_back(&done);
    out = co_await done.Wait();
  } else {
    lsm::LsmDb::GetResult got = co_await r.db->Get(key, r.ctx);
    out = Result<std::string>(std::move(got.status), std::move(got.value));
    if (options_.enable_read_coalescing) {
      // Leader: resolve everyone who joined meanwhile, before billing.
      // Detach the waiter list first: a resumed follower may immediately
      // issue the same key again and must start a fresh flight.
      auto flight = inflight_gets_.extract(flight_key);
      for (sim::OneShot<Result<std::string>>* w : flight.mapped().waiters) {
        w->Set(out);
      }
    }
    if (out.ok() && cache_ != nullptr) {
      cache_->Put(key, out.value());
    }
  }
  // A GET that completed is billed: by its value bytes when found, as one
  // normalized request (the index/seek work) when not. One failed by the
  // partition dying under it is not — PUT, DELETE and SCAN do the same.
  const bool completed =
      out.ok() || out.status().code() == StatusCode::kNotFound;
  Finish(r, AppRequest::kGet, out.ok() ? out.value().size() : 1, completed,
         kind, leader_ctx);
  co_return out;
}

sim::Task<lsm::LsmDb::ScanResult> StorageNode::Scan(TenantId tenant,
                                                    const std::string& start,
                                                    const std::string& end,
                                                    size_t limit,
                                                    TraceContext ctx) {
  const Request r = Admit(tenant, ctx);
  if (!r.status.ok()) {
    lsm::LsmDb::ScanResult out;
    out.status = r.status;
    co_return out;
  }
  // Scans bypass the object cache: the merge must see a consistent ordered
  // cut of the tree, which point-lookup cache entries cannot provide.
  lsm::LsmDb::ScanResult out = co_await r.db->Scan(start, end, limit, r.ctx);
  uint64_t billed = 0;
  if (out.status.ok()) {
    for (const auto& [key, value] : out.entries) {
      billed += value.size();
    }
    // An empty range still did index/seek work: bill at least one
    // normalized request, mirroring GET's not-found billing.
    billed = std::max<uint64_t>(billed, 1);
  }
  Finish(r, AppRequest::kScan, billed, out.status.ok());
  co_return out;
}

NodeStats StorageNode::Snapshot() const {
  NodeStats s;
  s.time_ns = loop_.Now();
  s.device = device_.stats();
  s.capacity_floor_vops = capacity_.provisionable();
  s.capacity_estimate_vops = capacity_.current_estimate();
  s.scheduler_rounds = scheduler_.rounds();
  if (const obs::TraceRing* tr = scheduler_.trace(); tr != nullptr) {
    s.trace_ring.enabled = true;
    s.trace_ring.capacity = tr->capacity();
    s.trace_ring.recorded = tr->total_recorded();
    s.trace_ring.dropped = tr->dropped();
  }
  if (const obs::SpanCollector* sc = scheduler_.spans(); sc != nullptr) {
    s.spans.enabled = true;
    s.spans.capacity = sc->capacity();
    s.spans.recorded = sc->total_recorded();
    s.spans.dropped = sc->dropped();
    s.spans.minted_traces = sc->minted_traces();
    s.spans.sampled_out = sc->sampled_out();
    s.spans.sample_every = sc->sample_every();
  }
  if (cache_ != nullptr) {
    s.object_cache.enabled = true;
    s.object_cache.hits = cache_->hits();
    s.object_cache.misses = cache_->misses();
    s.object_cache.evictions = cache_->evictions();
    s.object_cache.resident_bytes = cache_->size_bytes();
    s.object_cache.entries = cache_->entries();
  }
  if (block_cache_ != nullptr) {
    s.block_cache.enabled = true;
    s.block_cache.capacity_bytes = block_cache_->capacity_bytes();
    s.block_cache.resident_bytes = block_cache_->resident_bytes();
    s.block_cache.entries = block_cache_->entries();
    s.block_cache.hits = block_cache_->hits();
    s.block_cache.misses = block_cache_->misses();
    s.block_cache.evictions = block_cache_->evictions();
  }
  s.coalesced_gets = coalesced_gets_;
  s.recovery.crashes = crashes_;
  s.recovery.restarts = restarts_;
  s.recovery.wal_files_replayed = recovery_wal_files_;
  s.recovery.replay_records = recovery_replay_records_;
  s.recovery.replay_bytes = recovery_replay_bytes_;
  for (const auto& [tenant, unused] : request_latency_) {
    for (const ssd::IoType type : {ssd::IoType::kRead, ssd::IoType::kWrite}) {
      s.recovery.rereplication_vops += scheduler_.tracker().VopsBy(
          tenant, AppRequest::kPut, iosched::InternalOp::kReplicate, type);
    }
  }
  s.tenants.reserve(partitions_.size());
  for (const auto& [tenant, db] : partitions_) {
    TenantSnapshot t;
    t.tenant = tenant;
    t.reservation = policy_.GetReservation(tenant);
    t.allocation_vops = scheduler_.Allocation(tenant);
    if (const auto it = request_latency_.find(tenant);
        it != request_latency_.end()) {
      const RequestLatency& rl = it->second;
      t.get_latency = *rl.by_app[static_cast<int>(AppRequest::kGet)];
      t.put_latency = *rl.by_app[static_cast<int>(AppRequest::kPut)];
      t.scan_latency = *rl.by_app[static_cast<int>(AppRequest::kScan)];
    }
    t.compaction_policy = policy_.CompactionPolicyOf(tenant);
    if (const iosched::TenantLifecycleStats* lc = scheduler_.lifecycle(tenant);
        lc != nullptr) {
      t.io_total = lc->Aggregate();
      for (int a = 0; a < iosched::kNumAppRequests; ++a) {
        for (int i = 0; i < iosched::kNumInternalOps; ++i) {
          const obs::IoClassStats* c = lc->cls[a][i].get();
          if (c == nullptr || c->ops == 0) {
            continue;
          }
          t.io_classes.push_back(IoClassSnapshot{
              static_cast<AppRequest>(a), static_cast<iosched::InternalOp>(i),
              *c});
        }
      }
    }
    t.lsm = db->stats();
    if (const obs::SpanCollector* sc = scheduler_.spans(); sc != nullptr) {
      if (const obs::AttributionMatrix* m = sc->attribution().Of(tenant);
          m != nullptr) {
        t.attribution.observed = true;
        t.attribution.matrix = *m;
      }
      t.attribution.declared = policy_.DeclaredOf(tenant);
      t.attribution.tolerance = options_.attribution_tolerance;
      if (t.attribution.observed && t.attribution.declared.declared) {
        t.attribution.report =
            obs::CompareAttribution(t.attribution.matrix,
                                    t.attribution.declared);
        t.attribution.conformant =
            t.attribution.report.conformant(options_.attribution_tolerance);
      }
    }
    if (const obs::SlaMonitor::TenantSla* sl = policy_.sla().Of(tenant);
        sl != nullptr) {
      t.sla.tracked = true;
      t.sla.sla = *sl;
    }
    s.tenants.push_back(std::move(t));
  }
  const auto& records = policy_.audit_log().records();
  s.audit.assign(records.begin(), records.end());
  return s;
}

}  // namespace libra::kv

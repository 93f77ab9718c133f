#include "src/cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/cluster/global_provisioner.h"
#include "src/sim/sync.h"

namespace libra::cluster {

using iosched::AppRequest;
using iosched::Reservation;
using iosched::TenantId;

namespace {

// Poll cadence for shard gates (migration drain / routing suspension).
// Simulated time, so the only cost is a handful of extra events.
constexpr SimDuration kGatePoll = 200 * kMicrosecond;

// Ring placement seed; any change reshuffles every placement.
constexpr uint64_t kPlacementSeed = 0x11b7a5eed;

// Admission prices a normalized request at the cost model's price times this
// factor, a stand-in for amplification not yet observed at admission time.
constexpr double kAdmissionHeadroom = 1.0;

// Retry backoff grows by this factor after every attempt.
constexpr double kBackoffMultiplier = 2.0;

ShardMapOptions MapOptions(const ClusterOptions& options) {
  ShardMapOptions m;
  m.num_nodes = options.num_nodes;
  m.shards_per_tenant = options.shards_per_tenant;
  m.seed = kPlacementSeed;
  m.replication_factor = options.replication_factor;
  return m;
}

Status ValidateGlobal(const GlobalReservation& r) {
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    const auto app = static_cast<AppRequest>(a);
    if (!(r.RateOf(app) >= 0.0)) {
      return Status::InvalidArgument(
          "global reservation rates must be finite and non-negative (" +
          std::string(iosched::AppRequestName(app)) +
          "=" + std::to_string(r.RateOf(app)) + ")");
    }
  }
  return Status::Ok();
}

}  // namespace

// --- TenantHandle ---

// The retry loop shared by Put/Delete/Get/Scan: bounded attempts with
// exponential backoff on kUnavailable, under an optional per-request
// deadline. Returning `true` means "retry"; `false` means give up — the
// caller surfaces either the last underlying error (budget exhausted) or
// kDeadlineExceeded via `deadline_hit` (so a request against a dead
// cluster fails deterministically instead of hanging). The sleep is
// clamped so the deadline is never overshot.
namespace {

struct RetryState {
  const RetryPolicy* policy;
  sim::EventLoop* loop;
  SimTime deadline = 0;  // absolute; 0 = unbounded
  SimDuration backoff = 0;
  int attempt = 0;
  bool deadline_hit = false;

  RetryState(const RetryPolicy& p, sim::EventLoop& l)
      : policy(&p),
        loop(&l),
        deadline(p.deadline > 0 ? l.Now() + p.deadline : 0),
        backoff(p.initial_backoff) {}

  bool Exhausted(const Status& s) {
    if (s.code() != StatusCode::kUnavailable) {
      return true;  // success or a non-retryable error
    }
    if (attempt >= policy->max_retries) {
      return true;  // budget exhausted: caller surfaces `s` itself
    }
    if (deadline != 0 && loop->Now() >= deadline) {
      deadline_hit = true;
      return true;
    }
    return false;
  }

  sim::Task<void> Backoff() {
    ++attempt;
    SimDuration sleep = backoff;
    if (deadline != 0) {
      const SimDuration remaining = deadline - loop->Now();
      sleep = std::min(sleep, remaining);
    }
    if (sleep > 0) {
      co_await sim::SleepFor(*loop, sleep);
    }
    backoff = static_cast<SimDuration>(static_cast<double>(backoff) *
                                       kBackoffMultiplier);
  }

  Status DeadlineError(const Status& last) const {
    return Status::DeadlineExceeded(
        "deadline exceeded after " + std::to_string(attempt + 1) +
        " attempt(s); last error: " + last.message());
  }
};

const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

}  // namespace

template <typename R, typename Attempt>
sim::Task<R> TenantHandle::Retrying(Attempt attempt) const {
  if (!valid()) {
    co_return R(Status::FailedPrecondition("invalid tenant handle"));
  }
  RetryState retry(cluster_->options_.retry, cluster_->loop_);
  for (;;) {
    R r = co_await attempt();
    if (retry.Exhausted(StatusOf(r))) {
      co_return retry.deadline_hit ? R(retry.DeadlineError(StatusOf(r))) : r;
    }
    co_await retry.Backoff();
  }
}

sim::Task<Status> TenantHandle::Put(const std::string& key,
                                    const std::string& value) {
  return Retrying<Status>(
      [this, &key, &value] { return cluster_->Write(tenant_, key, value); });
}

sim::Task<Status> TenantHandle::Delete(const std::string& key) {
  return Retrying<Status>([this, &key] {
    return cluster_->Write(tenant_, key, std::nullopt);
  });
}

sim::Task<Result<std::string>> TenantHandle::Get(const std::string& key) {
  return Retrying<Result<std::string>>(
      [this, &key] { return cluster_->Get(tenant_, key); });
}

namespace {

// Arguments by value: the coroutine frame must own the key for its whole
// lifetime (the caller's loop variable dies before completion).
sim::Task<void> GetInto(TenantHandle handle, std::string key,
                        Result<std::string>* out) {
  *out = co_await handle.Get(key);
}

sim::Task<void> NodeGetInto(kv::StorageNode* node, TenantId tenant,
                            std::string key, TraceContext ctx,
                            Result<std::string>* out) {
  *out = co_await node->Get(tenant, key, ctx);
}

// Node side of a batched slot-group lookup: the lookups fan out
// concurrently on the node's own loop; results come back in `keys` order.
sim::Task<std::vector<Result<std::string>>> NodeMultiGet(
    kv::StorageNode& node, TenantId tenant, std::vector<std::string> keys,
    TraceContext ctx) {
  std::vector<Result<std::string>> results(keys.size());
  sim::TaskGroup group(node.loop());
  for (size_t i = 0; i < keys.size(); ++i) {
    group.Spawn(NodeGetInto(&node, tenant, keys[i], ctx, &results[i]));
  }
  co_await group.Join();
  co_return results;
}

// Records the cluster-layer root span of one routed request (no-op when the
// home node's collector is off or the request sampled out).
void RecordClientSpan(obs::SpanCollector* spans, const TraceContext& ctx,
                      AppRequest app, TenantId tenant, SimTime start,
                      SimTime end, uint64_t bytes) {
  if (spans == nullptr || !ctx.valid()) {
    return;
  }
  obs::SpanRecord rec;
  rec.trace_id = ctx.trace_id;
  rec.span_id = ctx.span_id;
  rec.kind = obs::SpanKind::kClientRequest;
  rec.app = static_cast<uint8_t>(app);
  rec.tenant = tenant;
  rec.start_ns = start;
  rec.end_ns = end;
  rec.bytes = bytes;
  spans->Record(rec);
}

}  // namespace

sim::Task<std::vector<Result<std::string>>> TenantHandle::MultiGet(
    const std::vector<std::string>& keys) {
  std::vector<Result<std::string>> out(keys.size());
  if (!valid()) {
    for (auto& r : out) {
      r = Result<std::string>(
          Status::FailedPrecondition("invalid tenant handle"));
    }
    co_return out;
  }
  if (cluster_->options_.batch_multiget) {
    // Group same-slot keys so each slot is routed (and migration-gated)
    // once; groups on different slots still proceed concurrently, as do
    // the lookups within a group once routed.
    std::map<int, std::vector<std::pair<size_t, std::string>>> by_slot;
    for (size_t i = 0; i < keys.size(); ++i) {
      by_slot[cluster_->shard_map_.SlotOfKey(keys[i])].emplace_back(i,
                                                                    keys[i]);
    }
    sim::TaskGroup batched(cluster_->loop_);
    for (auto& [slot, group_keys] : by_slot) {
      batched.Spawn(cluster_->MultiGetSlotGroup(tenant_, slot,
                                                std::move(group_keys), &out));
    }
    co_await batched.Join();
    co_return out;
  }
  // Fan out: every lookup is its own coroutine, so keys on different nodes
  // (and different shards of the same node) proceed concurrently; results
  // land in `keys` order regardless of completion order.
  sim::TaskGroup group(cluster_->loop_);
  for (size_t i = 0; i < keys.size(); ++i) {
    group.Spawn(GetInto(*this, keys[i], &out[i]));
  }
  co_await group.Join();
  co_return out;
}

sim::Task<Result<ScanEntries>> TenantHandle::Scan(const std::string& start,
                                                  const std::string& end,
                                                  size_t limit) {
  return Retrying<Result<ScanEntries>>([this, &start, &end, limit] {
    return cluster_->Scan(tenant_, start, end, limit);
  });
}

// --- Cluster ---

Cluster::Cluster(sim::EventLoop& loop, ClusterOptions options)
    : loop_(loop),
      options_(std::move(options)),
      shard_map_(MapOptions(options_)) {
  assert(options_.rpc_latency == 0 &&
         "rpc_latency requires the MultiLoop constructor");
  Init(nullptr);
}

Cluster::Cluster(sim::MultiLoop& engine, ClusterOptions options)
    : loop_(engine.loop(0)),
      multi_(&engine),
      options_(std::move(options)),
      shard_map_(MapOptions(options_)) {
  assert(engine.num_loops() == options_.num_nodes + 1 &&
         "parallel cluster needs one loop per node plus the coordinator");
  assert(options_.rpc_latency > 0 &&
         "parallel cluster needs a positive rpc_latency");
  assert(options_.rpc_latency >= engine.lookahead() &&
         "rpc_latency below the engine lookahead would break conservative "
         "synchronization");
  Init(&engine);
}

void Cluster::Init(sim::MultiLoop* engine) {
  assert(options_.num_nodes > 0);
  assert(options_.replication_factor >= 1);
  node_state_.assign(static_cast<size_t>(options_.num_nodes), NodeState{});
  repl_.assign(static_cast<size_t>(options_.num_nodes), ReplTelemetry{});
  ledger_.assign(static_cast<size_t>(options_.num_nodes), NodeLedger{});
  nodes_.reserve(options_.num_nodes);
  for (int i = 0; i < options_.num_nodes; ++i) {
    sim::EventLoop& node_loop =
        engine != nullptr ? engine->loop(NodeLoopIndex(i)) : loop_;
    nodes_.push_back(
        std::make_unique<kv::StorageNode>(node_loop, options_.node_options));
    // Namespace each node's minted trace/span ids so a merged cluster
    // export never collides across nodes (and stays deterministic).
    if (obs::SpanCollector* spans = nodes_.back()->scheduler().spans();
        spans != nullptr) {
      spans->SeedIds(static_cast<uint64_t>(i) + 1);
    }
  }
  if (engine != nullptr &&
      options_.node_options.scheduler_options.span_capacity > 0) {
    client_spans_ = std::make_unique<obs::SpanCollector>(
        options_.node_options.scheduler_options.span_capacity,
        options_.node_options.scheduler_options.span_sample_every);
    client_spans_->SeedIds(static_cast<uint64_t>(options_.num_nodes) + 1);
  }
  provisioner_ = std::make_unique<GlobalProvisioner>(loop_, *this,
                                                     options_.provisioner);
}

Cluster::~Cluster() = default;

void Cluster::Start() {
  for (auto& n : nodes_) {
    n->Start();
  }
  provisioner_->Start();
}

void Cluster::Stop() {
  provisioner_->Stop();
  for (auto& n : nodes_) {
    n->Stop();
  }
}

// --- cross-node seam (see cluster.h) ---

namespace {

// The node-side half of a parallel CallOnNode: owns `fn` for the whole
// node-side task, then sends the result home on `reply_delay`.
template <typename R, typename Fn>
sim::Task<void> ServeOnNode(sim::MultiLoop* engine, int node_loop,
                            SimDuration reply_delay, kv::StorageNode* node,
                            Fn fn, sim::OneShot<R>* done) {
  R r = co_await fn(*node);
  engine->Send(node_loop, 0, reply_delay,
               [done, r = std::move(r)]() mutable { done->Set(std::move(r)); });
}

}  // namespace

template <typename Fn>
sim::Task<Cluster::NodeReply<Fn>> Cluster::CallOnNode(
    int node, SimDuration request_delay, Fn fn) {
  kv::StorageNode* n = nodes_[node].get();
  if (multi_ == nullptr) {
    co_return co_await fn(*n);
  }
  sim::OneShot<NodeReply<Fn>> done(loop_);
  multi_->Send(0, NodeLoopIndex(node), request_delay,
               [this, node, n, fn = std::move(fn), &done]() mutable {
                 sim::Detach(ServeOnNode(multi_, NodeLoopIndex(node),
                                         options_.rpc_latency, n,
                                         std::move(fn), &done));
               });
  co_return co_await done.Wait();
}

template <typename Fn>
Status Cluster::PostToNode(int node, Fn fn) {
  kv::StorageNode* n = nodes_[node].get();
  if (multi_ == nullptr) {
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, kv::StorageNode&>>) {
      fn(*n);
      return Status::Ok();
    } else {
      return fn(*n);
    }
  }
  multi_->Send(0, NodeLoopIndex(node), options_.rpc_latency,
               [n, fn = std::move(fn)]() mutable { (void)fn(*n); });
  return Status::Ok();
}

// Trivially destructible on purpose: GCC 12 destroys a class temporary
// with a non-trivial destructor twice when it appears in a co_await
// expression, and the gate is always awaited as one.
struct Cluster::RpcGate {
  sim::SleepAwaiter sleep;  // the injected delay (serial engine only)
  bool drop;
  const NodeState* liveness;  // checked after the sleep; nullptr = skip
  int node;
  SimDuration request_delay;

  bool await_ready() const noexcept { return sleep.await_ready(); }
  void await_suspend(std::coroutine_handle<> h) { sleep.await_suspend(h); }
  Result<SimDuration> await_resume() const {
    if (drop) {
      return Result<SimDuration>(Status::Unavailable(
          "rpc to node " + std::to_string(node) + " dropped (injected)"));
    }
    if (liveness != nullptr && !liveness->alive) {
      return Result<SimDuration>(
          Status::Unavailable("node " + std::to_string(node) + " down"));
    }
    return Result<SimDuration>(request_delay);
  }
};

Cluster::RpcGate Cluster::GateRpc(TenantId tenant, int node,
                                  bool check_alive) {
  RpcFault f;
  if (rpc_faults_ != nullptr) {
    f = rpc_faults_->OnRpc(tenant, node);
  }
  const bool serial = multi_ == nullptr;
  SimDuration request_delay = options_.rpc_latency;
  if (!serial && f.delay > 0) {
    request_delay = f.delay;
  }
  return RpcGate{sim::SleepFor(loop_, serial ? f.delay : 0), f.drop,
                 check_alive ? &node_state_[node] : nullptr, node,
                 request_delay};
}

obs::SpanCollector* Cluster::RequestSpans(int node) const {
  return multi_ != nullptr ? client_spans_.get()
                           : nodes_[node]->scheduler().spans();
}

sim::Task<Result<ScanEntries>> Cluster::ScanSlots(
    kv::StorageNode& node, TenantId tenant, std::vector<int> slots,
    iosched::IoTag tag, const char* missing_msg) const {
  lsm::LsmDb* db = node.partition(tenant);
  if (db == nullptr) {
    co_return Result<ScanEntries>(Status::Internal(missing_msg));
  }
  ScanEntries entries;
  // ShardMap::SlotOfKey is a pure hash of the key (no placement state), so
  // calling it from the node's thread is safe.
  Status scan = co_await db->ScanLive(
      tag, [&](std::string_view k, std::string_view v) {
        const int slot = shard_map_.SlotOfKey(k);
        if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
          entries.emplace_back(std::string(k), std::string(v));
        }
      });
  if (!scan.ok()) {
    co_return Result<ScanEntries>(std::move(scan));
  }
  co_return Result<ScanEntries>(std::move(entries));
}

sim::Task<Cluster::ApplyResult> Cluster::ApplyOps(
    kv::StorageNode& node, TenantId tenant, ScanEntries puts,
    std::vector<std::string> deletes, TraceContext ctx, iosched::InternalOp op,
    const char* missing_msg) {
  ApplyResult result;
  lsm::LsmDb* db = node.partition(tenant);
  if (db == nullptr) {
    result.status = Status::Internal(missing_msg);
    co_return result;
  }
  for (const auto& [k, v] : puts) {
    if (Status s = co_await db->Put(k, v, ctx, op); !s.ok()) {
      result.status = std::move(s);
      co_return result;
    }
    ++result.puts_applied;
    result.put_key_bytes += k.size();
    result.put_value_bytes += v.size();
  }
  for (const std::string& k : deletes) {
    if (Status s = co_await db->Delete(k, ctx, op); !s.ok()) {
      result.status = std::move(s);
      co_return result;
    }
    ++result.deletes_applied;
  }
  co_return result;
}

lsm::CompactionPolicy Cluster::CompactionOf(TenantId tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? lsm::CompactionPolicy::kLeveled
                              : it->second.compaction;
}

obs::DeclaredAttribution Cluster::DeclaredOf(TenantId tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? obs::DeclaredAttribution{}
                              : it->second.declared;
}

void Cluster::InjectGcStall(int node, SimDuration stall) {
  (void)PostToNode(node, [stall](kv::StorageNode& n) {
    n.device().InjectGcStall(stall);
  });
}

double Cluster::AdmissionPrice(AppRequest app) const {
  // Direct cost of one normalized (1KB) request under the shared cost
  // model; headroom stands in for amplification unobservable at admission.
  const auto& model = nodes_[0]->scheduler().cost_model();
  ssd::IoType type = ssd::IoType::kRead;
  switch (app) {
    case AppRequest::kNone:  // unpriced class; priced as a read if asked
    case AppRequest::kGet:
    case AppRequest::kScan:  // scans are read IO per normalized request
      type = ssd::IoType::kRead;
      break;
    case AppRequest::kPut:
      type = ssd::IoType::kWrite;
      break;
  }
  return model.Cost(type, 1024) * kAdmissionHeadroom;
}

double Cluster::PricedVops(const Reservation& r) const {
  double total = 0.0;
  for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests; ++a) {
    const auto app = static_cast<AppRequest>(a);
    total += r.RateOf(app) * AdmissionPrice(app);
  }
  return total;
}

std::map<int, Reservation> Cluster::EvenSplit(
    TenantId tenant, const GlobalReservation& global) const {
  // Split over *alive* hosting nodes, weighted by hosted slot replicas.
  // A crashed node earns no share — its mass moves to the survivors — and
  // the denominator is the alive slot-replica count so the shares still
  // sum to 1 (at RF=1 with every node up this is shards_per_tenant, the
  // pre-replication behavior).
  const std::vector<int> slots = shard_map_.SlotsPerNode(tenant);
  std::map<int, Reservation> split;
  double total = 0.0;
  int last_node = -1;
  for (int n = 0; n < static_cast<int>(slots.size()); ++n) {
    if (slots[n] > 0 && node_state_[n].alive) {
      last_node = n;
      total += static_cast<double>(slots[n]);
    }
  }
  if (last_node < 0) {
    return split;  // every hosting node is down
  }
  double used[iosched::kNumAppRequests] = {};
  for (int n = 0; n < static_cast<int>(slots.size()); ++n) {
    if (slots[n] == 0 || !node_state_[n].alive) {
      continue;
    }
    Reservation r;
    if (n == last_node) {
      // Exact-sum invariant: the last hosting node takes the remainder.
      for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests;
           ++a) {
        r.rps[a] = global.rps[a] - used[a];
      }
    } else {
      const double share = static_cast<double>(slots[n]) / total;
      for (int a = iosched::kFirstAppRequest; a < iosched::kNumAppRequests;
           ++a) {
        r.rps[a] = global.rps[a] * share;
        used[a] += r.rps[a];
      }
    }
    split[n] = r;
  }
  return split;
}

void Cluster::NodeLedger::Set(TenantId tenant, double vops) {
  const bool append = priced.empty() || priced.rbegin()->first < tenant;
  const auto [it, inserted] = priced.try_emplace(tenant, vops);
  if (inserted) {
    if (append && !stale) {
      sum += vops;
    } else {
      stale = true;
    }
  } else if (it->second != vops) {
    it->second = vops;
    stale = true;
  }
}

void Cluster::NodeLedger::Erase(TenantId tenant) {
  if (priced.erase(tenant) > 0) {
    stale = true;
  }
}

double Cluster::NodeLedger::Sum(TenantId except) const {
  const bool skips = priced.count(except) > 0;
  if (!skips && !stale) {
    return sum;
  }
  double total = 0.0;
  for (const auto& [tenant, vops] : priced) {
    if (tenant != except) {
      total += vops;
    }
  }
  if (!skips) {
    sum = total;
    stale = false;
  }
  return total;
}

double Cluster::ProvisionedOn(int node, TenantId except) const {
  return ledger_[node].Sum(except);
}

Status Cluster::CheckAdmission(
    TenantId tenant, const std::map<int, Reservation>& split) const {
  if (!options_.admission_enabled) {
    return Status::Ok();
  }
  for (const auto& [n, share] : split) {
    const double provisioned = ProvisionedOn(n, tenant);
    const double incoming = PricedVops(share);
    const double budget =
        options_.admission_utilization * nodes_[n]->capacity().provisionable();
    if (provisioned + incoming > budget) {
      return Status::ResourceExhausted(
          "admission rejected: node " + std::to_string(n) + " would carry " +
          std::to_string(provisioned + incoming) + " VOP/s (" +
          std::to_string(provisioned) + " provisioned + " +
          std::to_string(incoming) + " for tenant " + std::to_string(tenant) +
          "), over " + std::to_string(budget) + " = " +
          std::to_string(options_.admission_utilization) +
          " * capacity floor " +
          std::to_string(nodes_[n]->capacity().provisionable()));
    }
  }
  return Status::Ok();
}

Status Cluster::ApplySplit(TenantId tenant,
                           const std::map<int, Reservation>& split) {
  TenantState& state = tenants_[tenant];
  // Nodes that dropped out of the split (all slots migrated away) fall back
  // to a zero local reservation: the partition still exists and may hold
  // tombstones, but earns no provisioned VOPs.
  for (const auto& [n, old_share] : state.split) {
    if (!node_state_[n].alive) {
      continue;  // dead node: its policy is stopped; resplit covers it later
    }
    if (split.count(n) == 0) {
      Status s = PostToNode(n, [tenant](kv::StorageNode& node) {
        return node.HasTenant(tenant)
                   ? node.UpdateReservation(tenant, Reservation{})
                   : Status::Ok();
      });
      if (!s.ok()) {
        return s;
      }
    }
  }
  // The parallel engine posts the installs fire-and-forget (the shares
  // were validated at admission); only the serial engine can fail here.
  const lsm::CompactionPolicy compaction = CompactionOf(tenant);
  const obs::DeclaredAttribution declared = DeclaredOf(tenant);
  for (const auto& [n, share] : split) {
    Status s = PostToNode(n, [tenant, share, compaction,
                              declared](kv::StorageNode& node) {
      return node.HasTenant(tenant)
                 ? node.UpdateReservation(tenant, share)
                 : node.AddTenant(tenant, share, declared, compaction);
    });
    if (!s.ok()) {
      return s;
    }
  }
  for (const auto& [n, old_share] : state.split) {
    if (split.count(n) == 0) {
      ledger_[n].Erase(tenant);
    }
  }
  for (const auto& [n, share] : split) {
    ledger_[n].Set(tenant, PricedVops(share));
  }
  state.split = split;
  return Status::Ok();
}

Result<TenantHandle> Cluster::AddTenant(TenantId tenant,
                                        GlobalReservation reservation,
                                        lsm::CompactionPolicy compaction,
                                        obs::DeclaredAttribution declared) {
  if (tenants_.count(tenant) > 0) {
    return Result<TenantHandle>(Status::AlreadyExists(
        "tenant " + std::to_string(tenant) + " already admitted"));
  }
  if (Status s = ValidateGlobal(reservation); !s.ok()) {
    return Result<TenantHandle>(std::move(s));
  }
  const std::map<int, Reservation> split = EvenSplit(tenant, reservation);
  if (Status s = CheckAdmission(tenant, split); !s.ok()) {
    return Result<TenantHandle>(std::move(s));
  }
  TenantState& state = tenants_[tenant];
  state.global = reservation;
  state.compaction = compaction;
  state.declared = declared;
  if (Status s = ApplySplit(tenant, split); !s.ok()) {
    tenants_.erase(tenant);
    return Result<TenantHandle>(std::move(s));
  }
  return Result<TenantHandle>(TenantHandle(this, tenant));
}

Status Cluster::UpdateGlobalReservation(TenantId tenant,
                                        GlobalReservation reservation) {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  if (Status s = ValidateGlobal(reservation); !s.ok()) {
    return s;
  }
  // Re-split evenly now; the provisioner re-weights by demand next interval.
  const std::map<int, Reservation> split = EvenSplit(tenant, reservation);
  if (Status s = CheckAdmission(tenant, split); !s.ok()) {
    return s;
  }
  it->second.global = reservation;
  return ApplySplit(tenant, split);
}

Result<TenantHandle> Cluster::Handle(TenantId tenant) {
  if (tenants_.count(tenant) == 0) {
    return Result<TenantHandle>(
        Status::NotFound("unknown tenant " + std::to_string(tenant)));
  }
  return Result<TenantHandle>(TenantHandle(this, tenant));
}

GlobalReservation Cluster::global_reservation(TenantId tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? GlobalReservation{} : it->second.global;
}

std::vector<TenantId> Cluster::tenants() const {
  std::vector<TenantId> out;
  out.reserve(tenants_.size());
  for (const auto& [t, state] : tenants_) {
    out.push_back(t);
  }
  return out;
}

double Cluster::GlobalNormalizedTotal(TenantId tenant, AppRequest app) const {
  double total = 0.0;
  for (const auto& n : nodes_) {
    total += n->tracker().NormalizedRequestsTotal(tenant, app);
  }
  return total;
}

// --- request routing ---

sim::Task<int> Cluster::AwaitRoutable(TenantId tenant, int slot) {
  ShardState& ss = Shard(tenant, slot);
  while (ss.migrating) {
    co_await sim::SleepFor(loop_, kGatePoll);
  }
  // Resolve the home only after the gate: a migration that completed while
  // we slept re-homed the slot.
  co_return shard_map_.HomeOf(tenant, slot);
}

int Cluster::ReadReplica(TenantId tenant, int slot) const {
  const std::vector<int> replicas = shard_map_.ReplicasOf(tenant, slot);
  for (const int r : replicas) {
    if (node_state_[r].alive && !node_state_[r].syncing) {
      return r;
    }
  }
  for (const int r : replicas) {
    if (node_state_[r].alive) {
      return r;
    }
  }
  return -1;
}

sim::Task<void> Cluster::WriteReplica(int node, TenantId tenant,
                                      std::string key,
                                      std::optional<std::string> value,
                                      TraceContext ctx, Status* out) {
  const Result<SimDuration> leg =
      co_await GateRpc(tenant, node, /*check_alive=*/true);
  if (!leg.ok()) {
    *out = leg.status();
    co_return;
  }
  auto write = [tenant, key = std::move(key), value = std::move(value),
                ctx](kv::StorageNode& n) {
    return value.has_value() ? n.Put(tenant, key, *value, ctx)
                             : n.Delete(tenant, key, ctx);
  };
  *out = co_await CallOnNode(node, leg.value(), std::move(write));
}

namespace {

// Write fan-out verdict: the write is acked iff at least one replica
// persisted it and every failure was mere unavailability (a replica dying
// mid-write must not fail a write the survivors durably hold). Any hard
// error — or zero acks — surfaces, preferring the most specific status.
Status AggregateWrite(const std::vector<Status>& statuses) {
  int acks = 0;
  Status failure = Status::Ok();
  for (const Status& s : statuses) {
    if (s.ok()) {
      ++acks;
      continue;
    }
    if (failure.ok() || (failure.code() == StatusCode::kUnavailable &&
                         s.code() != StatusCode::kUnavailable)) {
      failure = s;
    }
  }
  if (failure.ok() || (acks > 0 &&
                       failure.code() == StatusCode::kUnavailable)) {
    return acks > 0 ? Status::Ok() : Status::Unavailable("no live replica");
  }
  return failure;
}

}  // namespace

sim::Task<Status> Cluster::Write(TenantId tenant, std::string key,
                                 std::optional<std::string> value) {
  if (tenants_.count(tenant) == 0) {
    co_return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  const int slot = shard_map_.SlotOfKey(key);
  (void)co_await AwaitRoutable(tenant, slot);
  const std::vector<int> replicas = shard_map_.ReplicasOf(tenant, slot);
  ShardState& ss = Shard(tenant, slot);
  ++ss.inflight;
  // Targets: every live replica. Syncing nodes are included — they must
  // see new writes during catch-up or they would fall behind forever.
  std::vector<int> targets;
  for (const int r : replicas) {
    if (node_state_[r].alive) {
      targets.push_back(r);
    }
  }
  Status result = Status::Unavailable("no live replica for slot " +
                                      std::to_string(slot));
  if (!targets.empty()) {
    obs::SpanCollector* spans = RequestSpans(targets[0]);
    const TraceContext ctx =
        spans != nullptr ? spans->MintTrace() : TraceContext{};
    const SimTime start = loop_.Now();
    // A put is billed by its value, a delete (tombstone) by its key.
    const uint64_t bytes = value.has_value() ? value->size() : key.size();
    if (targets.size() == 1) {
      co_await WriteReplica(targets[0], tenant, key, value, ctx, &result);
    } else {
      std::vector<Status> statuses(targets.size());
      sim::TaskGroup group(loop_);
      for (size_t i = 0; i < targets.size(); ++i) {
        group.Spawn(WriteReplica(targets[i], tenant, key, value, ctx,
                                 &statuses[i]));
      }
      co_await group.Join();
      result = AggregateWrite(statuses);
      for (size_t i = 1; i < targets.size(); ++i) {
        if (statuses[i].ok()) {
          ++repl_[targets[i]].fanout_puts;
          repl_[targets[i]].fanout_bytes += bytes;
        }
      }
    }
    RecordClientSpan(spans, ctx, AppRequest::kPut, tenant, start, loop_.Now(),
                     bytes);
  }
  --ss.inflight;
  co_return result;
}

sim::Task<Result<std::string>> Cluster::Get(TenantId tenant, std::string key) {
  if (tenants_.count(tenant) == 0) {
    co_return Result<std::string>(
        Status::NotFound("unknown tenant " + std::to_string(tenant)));
  }
  const int slot = shard_map_.SlotOfKey(key);
  (void)co_await AwaitRoutable(tenant, slot);
  const std::vector<int> replicas = shard_map_.ReplicasOf(tenant, slot);
  ShardState& ss = Shard(tenant, slot);
  ++ss.inflight;
  // Candidate order: live synced replicas in replica-set order (leader
  // first), then live syncing ones — a catching-up replica may be missing
  // flushed data, so it serves only when nothing better is up.
  std::vector<int> order;
  for (const int r : replicas) {
    if (node_state_[r].alive && !node_state_[r].syncing) {
      order.push_back(r);
    }
  }
  for (const int r : replicas) {
    if (node_state_[r].alive && node_state_[r].syncing) {
      order.push_back(r);
    }
  }
  Result<std::string> result(Status::Unavailable(
      "no live replica for slot " + std::to_string(slot)));
  for (const int node : order) {
    // No liveness re-check: a replica that died since `order` was taken
    // answers kUnavailable itself.
    const Result<SimDuration> leg =
        co_await GateRpc(tenant, node, /*check_alive=*/false);
    if (!leg.ok()) {
      result = Result<std::string>(leg.status());
      continue;  // fail over to the next replica
    }
    obs::SpanCollector* spans = RequestSpans(node);
    const TraceContext ctx =
        spans != nullptr ? spans->MintTrace() : TraceContext{};
    const SimTime start = loop_.Now();
    auto get = [tenant, key, ctx](kv::StorageNode& n) {
      return n.Get(tenant, key, ctx);
    };
    result = co_await CallOnNode(node, leg.value(), std::move(get));
    RecordClientSpan(spans, ctx, AppRequest::kGet, tenant, start, loop_.Now(),
                     result.ok() ? result.value().size() : 0);
    if (result.status().code() != StatusCode::kUnavailable) {
      if (node != replicas[0]) {
        ++repl_[node].failover_gets;
      }
      break;
    }
  }
  --ss.inflight;
  co_return result;
}

sim::Task<void> Cluster::MultiGetSlotGroup(
    TenantId tenant, int slot, std::vector<std::pair<size_t, std::string>> keys,
    std::vector<Result<std::string>>* out) {
  const auto fail_group = [&](const Status& s) {
    for (const auto& [i, key] : keys) {
      (*out)[i] = Result<std::string>(s);
    }
  };
  if (tenants_.count(tenant) == 0) {
    fail_group(Status::NotFound("unknown tenant " + std::to_string(tenant)));
    co_return;
  }
  ++multiget_groups_;
  multiget_grouped_keys_ += keys.size();
  // One migration gate for the whole group; the same inflight accounting
  // as per-key Get so a draining migration still waits for every member.
  (void)co_await AwaitRoutable(tenant, slot);
  // A whole group fails together when every replica is down (or its one
  // RPC is dropped) — the per-key retry path (TenantHandle) is the
  // recourse.
  const int node = ReadReplica(tenant, slot);
  if (node < 0) {
    fail_group(Status::Unavailable("no live replica for slot " +
                                   std::to_string(slot)));
    co_return;
  }
  ShardState& ss = Shard(tenant, slot);
  ss.inflight += static_cast<int>(keys.size());
  // Like per-key Get, the group's one RPC passes the fault gate without a
  // liveness re-check.
  const Result<SimDuration> leg =
      co_await GateRpc(tenant, node, /*check_alive=*/false);
  if (!leg.ok()) {
    fail_group(leg.status());
    ss.inflight -= static_cast<int>(keys.size());
    co_return;
  }
  if (node != shard_map_.HomeOf(tenant, slot)) {
    repl_[node].failover_gets += keys.size();
  }
  // One client-request span covers the whole slot group; each member
  // lookup becomes a child span at the node.
  obs::SpanCollector* spans = RequestSpans(node);
  const TraceContext ctx =
      spans != nullptr ? spans->MintTrace() : TraceContext{};
  const SimTime start = loop_.Now();
  // One call carries the whole group; the node fans the lookups out on
  // its own loop and replies with the results in key order.
  std::vector<std::string> group_keys;
  group_keys.reserve(keys.size());
  for (const auto& [i, key] : keys) {
    group_keys.push_back(key);
  }
  auto multi_get = [tenant, group_keys = std::move(group_keys),
                    ctx](kv::StorageNode& n) mutable {
    return NodeMultiGet(n, tenant, std::move(group_keys), ctx);
  };
  std::vector<Result<std::string>> results =
      co_await CallOnNode(node, leg.value(), std::move(multi_get));
  for (size_t i = 0; i < keys.size(); ++i) {
    (*out)[keys[i].first] = std::move(results[i]);
  }
  RecordClientSpan(spans, ctx, AppRequest::kGet, tenant, start, loop_.Now(),
                   keys.size());
  ss.inflight -= static_cast<int>(keys.size());
}

// --- range scans ---

sim::Task<void> Cluster::ScanNodeGroup(TenantId tenant, int node,
                                       std::vector<int> slots,
                                       std::string start, std::string end,
                                       size_t limit,
                                       lsm::LsmDb::ScanResult* out) {
  const Result<SimDuration> leg =
      co_await GateRpc(tenant, node, /*check_alive=*/true);
  if (!leg.ok()) {
    out->status = leg.status();
    co_return;
  }
  obs::SpanCollector* spans = RequestSpans(node);
  const TraceContext ctx =
      spans != nullptr ? spans->MintTrace() : TraceContext{};
  const SimTime start_time = loop_.Now();
  // RF>1: the node's partition interleaves follower copies of slots served
  // elsewhere, so a pushed-down limit could truncate before this group's
  // own keys surface; scan unbounded and let the coordinator truncate.
  const size_t node_limit = shard_map_.replication_factor() > 1 ? 0 : limit;
  auto scan = [tenant, start = std::move(start), end = std::move(end),
               node_limit, ctx](kv::StorageNode& n) {
    return n.Scan(tenant, start, end, node_limit, ctx);
  };
  *out = co_await CallOnNode(node, leg.value(), std::move(scan));
  uint64_t bytes = 0;
  if (out->status.ok()) {
    // Keep only the slots this node serves for the scan (SlotOfKey is a
    // pure key hash); copies of other slots' keys are surfaced by their
    // own serving nodes.
    ScanEntries kept;
    kept.reserve(out->entries.size());
    for (auto& [k, v] : out->entries) {
      const int slot = shard_map_.SlotOfKey(k);
      if (std::find(slots.begin(), slots.end(), slot) != slots.end()) {
        bytes += v.size();
        kept.emplace_back(std::move(k), std::move(v));
      }
    }
    out->entries = std::move(kept);
  }
  RecordClientSpan(spans, ctx, AppRequest::kScan, tenant, start_time,
                   loop_.Now(), bytes);
}

sim::Task<Result<ScanEntries>> Cluster::Scan(TenantId tenant,
                                             std::string start,
                                             std::string end, size_t limit) {
  if (tenants_.count(tenant) == 0) {
    co_return Result<ScanEntries>(
        Status::NotFound("unknown tenant " + std::to_string(tenant)));
  }
  if (!end.empty() && end <= start) {
    co_return Result<ScanEntries>(ScanEntries{});  // empty range
  }
  // Resolve every slot's serving node in ring order: gate on migrations,
  // then take the slot's read replica. A slot with no live replica fails
  // the whole scan — a range scan must not silently skip part of the
  // keyspace.
  std::map<int, std::vector<int>> by_node;
  for (int slot = 0; slot < shard_map_.shards_per_tenant(); ++slot) {
    (void)co_await AwaitRoutable(tenant, slot);
    const int node = ReadReplica(tenant, slot);
    if (node < 0) {
      co_return Result<ScanEntries>(Status::Unavailable(
          "no live replica for slot " + std::to_string(slot)));
    }
    by_node[node].push_back(slot);
  }
  // The scan holds every slot inflight for its whole duration, so a
  // migration drain waits for it like any other request.
  for (const auto& [node, slots] : by_node) {
    for (const int slot : slots) {
      ++Shard(tenant, slot).inflight;
    }
  }
  std::vector<lsm::LsmDb::ScanResult> per_node(by_node.size());
  {
    sim::TaskGroup group(loop_);
    size_t i = 0;
    for (const auto& [node, slots] : by_node) {
      group.Spawn(
          ScanNodeGroup(tenant, node, slots, start, end, limit,
                        &per_node[i]));
      ++i;
    }
    co_await group.Join();
  }
  for (const auto& [node, slots] : by_node) {
    for (const int slot : slots) {
      --Shard(tenant, slot).inflight;
    }
  }
  // Merge: slots partition the keyspace, so the per-node runs are disjoint
  // — concatenate, restore key order, apply the global limit.
  ScanEntries merged;
  for (auto& r : per_node) {
    if (!r.status.ok()) {
      co_return Result<ScanEntries>(std::move(r.status));
    }
    merged.insert(merged.end(), std::make_move_iterator(r.entries.begin()),
                  std::make_move_iterator(r.entries.end()));
  }
  std::sort(merged.begin(), merged.end());
  if (limit != 0 && merged.size() > limit) {
    merged.resize(limit);
  }
  co_return Result<ScanEntries>(std::move(merged));
}

// --- shard migration ---

sim::Task<Status> Cluster::MigrateShard(TenantId tenant, int slot,
                                        int to_node) {
  if (tenants_.count(tenant) == 0) {
    co_return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  if (slot < 0 || slot >= shard_map_.shards_per_tenant()) {
    co_return Status::InvalidArgument("slot out of range");
  }
  if (to_node < 0 || to_node >= num_nodes()) {
    co_return Status::InvalidArgument("node out of range");
  }
  const int from = shard_map_.HomeOf(tenant, slot);
  if (from == to_node) {
    co_return Status::Ok();
  }
  if (!node_state_[to_node].alive) {
    co_return Status::FailedPrecondition("target node down");
  }
  if (!node_state_[from].alive) {
    co_return Status::FailedPrecondition("source node down");
  }
  ShardState& ss = Shard(tenant, slot);
  if (ss.migrating) {
    co_return Status::FailedPrecondition("shard already migrating");
  }
  ss.migrating = true;  // gate: new requests to this shard now suspend
  ++active_migrations_;
  // Coroutine-frame destructor order releases the gate on every co_return
  // path, success or error.
  struct GateRelease {
    ShardState* ss;
    int* active;
    ~GateRelease() {
      ss->migrating = false;
      --*active;
    }
  } release{&ss, &active_migrations_};

  // Drain: let in-flight requests on the shard finish.
  while (ss.inflight > 0) {
    co_await sim::SleepFor(loop_, kGatePoll);
  }

  // Best-effort registration; the provisioner assigns it a real share of
  // the global reservation at its next split. (Node-side membership checks
  // happen on the node's own loop in parallel mode.)
  auto ensure_tenant = [tenant, compaction = CompactionOf(tenant),
                        declared = DeclaredOf(tenant)](kv::StorageNode& n) {
    return n.HasTenant(tenant)
               ? Status::Ok()
               : n.AddTenant(tenant, Reservation{}, declared, compaction);
  };
  if (Status s = PostToNode(to_node, std::move(ensure_tenant)); !s.ok()) {
    co_return s;
  }

  // Copy every live key of the migrating slot. The drain read and the
  // re-home writes are charged to the tenant as unattributed IO (no app
  // request class), so its GET/PUT profiles are not distorted. Each side
  // gets a kMigration span — in its own node's collector (serial), or in
  // the coordinator's client collector (parallel): the source span covers
  // the scan + tombstoning, the destination span (linked to the source)
  // covers the copy-in, and all device IO parents under them.
  obs::SpanCollector* src_spans = RequestSpans(from);
  obs::SpanCollector* dst_spans = RequestSpans(to_node);
  const TraceContext src_ctx =
      src_spans != nullptr ? src_spans->MintAlways() : TraceContext{};
  const TraceContext dst_ctx =
      dst_spans != nullptr ? dst_spans->MintAlways() : TraceContext{};
  const SimTime copy_start = loop_.Now();
  const iosched::IoTag drain_tag{tenant, AppRequest::kNone,
                                 iosched::InternalOp::kNone, src_ctx};
  const char* const kMissing = "missing partition during migration";
  auto drain = [this, tenant, slot, drain_tag, kMissing](kv::StorageNode& n) {
    return ScanSlots(n, tenant, {slot}, drain_tag, kMissing);
  };
  Result<ScanEntries> scanned =
      co_await CallOnNode(from, options_.rpc_latency, std::move(drain));
  if (!scanned.ok()) {
    co_return scanned.status();
  }
  ScanEntries moving = std::move(scanned.value());
  auto copy = [tenant, moving, dst_ctx, kMissing](kv::StorageNode& n) mutable {
    return ApplyOps(n, tenant, std::move(moving), {}, dst_ctx,
                    iosched::InternalOp::kNone, kMissing);
  };
  const ApplyResult copy_in =
      co_await CallOnNode(to_node, options_.rpc_latency, std::move(copy));
  if (!copy_in.status.ok()) {
    co_return copy_in.status;
  }
  const uint64_t moved_bytes =
      copy_in.put_key_bytes + copy_in.put_value_bytes;
  // Flip the map only after the copy fully succeeded (re-running a failed
  // migration must still see the source's keys), then tombstone the moved
  // keys at the source — unless the source remains in the slot's replica
  // set (RF>1: re-homing the leader can demote the old leader to a ring
  // follower, whose copy must survive).
  shard_map_.Rehome(tenant, slot, to_node);
  const std::vector<int> post_replicas = shard_map_.ReplicasOf(tenant, slot);
  const bool from_still_replica =
      std::find(post_replicas.begin(), post_replicas.end(), from) !=
      post_replicas.end();
  if (!from_still_replica) {
    std::vector<std::string> dead_keys;
    dead_keys.reserve(moving.size());
    for (const auto& [k, v] : moving) {
      dead_keys.push_back(k);
    }
    auto tombstone = [tenant, dead_keys = std::move(dead_keys), src_ctx,
                      kMissing](kv::StorageNode& n) mutable {
      return ApplyOps(n, tenant, {}, std::move(dead_keys), src_ctx,
                      iosched::InternalOp::kNone, kMissing);
    };
    const ApplyResult tombstoned =
        co_await CallOnNode(from, options_.rpc_latency, std::move(tombstone));
    if (!tombstoned.status.ok()) {
      co_return tombstoned.status;
    }
  }
  if (src_spans != nullptr) {
    obs::SpanRecord rec;
    rec.trace_id = src_ctx.trace_id;
    rec.span_id = src_ctx.span_id;
    rec.kind = obs::SpanKind::kMigration;
    rec.tenant = tenant;
    rec.start_ns = copy_start;
    rec.end_ns = loop_.Now();
    rec.bytes = moved_bytes;
    src_spans->Record(rec);
  }
  if (dst_spans != nullptr) {
    obs::SpanRecord rec;
    rec.trace_id = dst_ctx.trace_id;
    rec.span_id = dst_ctx.span_id;
    rec.kind = obs::SpanKind::kMigration;
    rec.is_write = 1;
    rec.tenant = tenant;
    rec.start_ns = copy_start;
    rec.end_ns = loop_.Now();
    rec.bytes = moved_bytes;
    rec.links.Add(src_ctx);  // the drain this copy rode
    dst_spans->Record(rec);
  }

  // GateRelease clears `migrating`; gated requests re-resolve to the new
  // home once the coroutine returns.

  obs::RebalanceRecord rec;
  rec.kind = obs::RebalanceRecord::Kind::kMigration;
  rec.time_ns = loop_.Now();
  rec.tenant = tenant;
  rec.slot = slot;
  rec.from_node = from;
  rec.to_node = to_node;
  rec.keys_moved = moving.size();
  rebalance_log_.Append(rec);
  co_return Status::Ok();
}

// --- crash fault injection & recovery ---

Status Cluster::ResplitForMembership() {
  for (auto& [tenant, state] : tenants_) {
    const std::map<int, Reservation> split = EvenSplit(tenant, state.global);
    if (split.empty()) {
      // Every hosting node is down; nothing to install until a restart.
      continue;
    }
    if (Status s = ApplySplit(tenant, split); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status Cluster::CrashNode(int node) {
  if (node < 0 || node >= num_nodes()) {
    return Status::InvalidArgument("node out of range");
  }
  if (!node_state_[node].alive) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " already down");
  }
  (void)PostToNode(node, [](kv::StorageNode& n) { n.Crash(); });
  node_state_[node].alive = false;
  node_state_[node].syncing = false;
  // Immediately move the dead node's reservation mass to the survivors so
  // no tenant's global reservation is partially stranded on a stopped
  // policy (the exact-sum invariant the provisioner relies on).
  return ResplitForMembership();
}

sim::Task<Status> Cluster::RestartNode(int node) {
  if (node < 0 || node >= num_nodes()) {
    co_return Status::InvalidArgument("node out of range");
  }
  if (node_state_[node].alive) {
    co_return Status::FailedPrecondition("node " + std::to_string(node) +
                                         " is not crashed");
  }
  auto restart = [](kv::StorageNode& n) { return n.Restart(); };
  if (Status s =
          co_await CallOnNode(node, options_.rpc_latency, std::move(restart));
      !s.ok()) {
    co_return s;
  }
  node_state_[node].alive = true;
  node_state_[node].syncing = shard_map_.replication_factor() > 1;
  // Back in the write path (and the reservation split) right away; reads
  // prefer synced replicas until catch-up finishes.
  if (Status s = ResplitForMembership(); !s.ok()) {
    node_state_[node].syncing = false;
    co_return s;
  }
  if (node_state_[node].syncing) {
    const Status caught_up = co_await CatchUpNode(node);
    node_state_[node].syncing = false;
    co_return caught_up;
  }
  co_return Status::Ok();
}

sim::Task<Status> Cluster::CatchUpNode(int node) {
  std::vector<TenantId> ids;
  ids.reserve(tenants_.size());
  for (const auto& [t, state] : tenants_) {
    ids.push_back(t);
  }
  Status worst = Status::Ok();
  for (const TenantId t : ids) {
    if (Status s = co_await CatchUpTenant(t, node); !s.ok()) {
      worst = s;  // keep catching up the other tenants regardless
    }
  }
  repl_[node].catchup_lag_slots = 0;
  co_return worst;
}

sim::Task<Status> Cluster::CatchUpTenant(TenantId tenant, int node) {
  // Slots this node replicates, grouped by the surviving replica that will
  // source the copy (first live synced member of each slot's replica set).
  std::map<int, std::vector<int>> by_source;
  int total_slots = 0;
  for (int slot = 0; slot < shard_map_.shards_per_tenant(); ++slot) {
    const std::vector<int> replicas = shard_map_.ReplicasOf(tenant, slot);
    if (std::find(replicas.begin(), replicas.end(), node) == replicas.end()) {
      continue;
    }
    for (const int r : replicas) {
      if (r != node && node_state_[r].alive && !node_state_[r].syncing) {
        by_source[r].push_back(slot);
        ++total_slots;
        break;
      }
    }
  }
  if (by_source.empty()) {
    co_return Status::Ok();
  }
  repl_[node].catchup_lag_slots += total_slots;
  for (const auto& [src_node, slots] : by_source) {
    // Gate the group's slots like a migration: new requests suspend and
    // in-flight ones drain, so a write cannot race the copy and be
    // shadowed by an older copied-in value.
    for (const int slot : slots) {
      ShardState& ss = Shard(tenant, slot);
      while (ss.migrating) {
        co_await sim::SleepFor(loop_, kGatePoll);
      }
      ss.migrating = true;
    }
    struct GateRelease {
      Cluster* c;
      TenantId tenant;
      const std::vector<int>* slots;
      ~GateRelease() {
        for (const int slot : *slots) {
          c->Shard(tenant, slot).migrating = false;
        }
      }
    } release{this, tenant, &slots};
    for (;;) {
      int inflight = 0;
      for (const int slot : slots) {
        inflight += Shard(tenant, slot).inflight;
      }
      if (inflight == 0) {
        break;
      }
      co_await sim::SleepFor(loop_, kGatePoll);
    }

    // Both sides bill the copy stream as PUT-triggered REPL work: the scan
    // on the source and the copy-in on the restarted node all carry
    // InternalOp::kReplicate, so recovery lands in each node's attribution
    // matrix and interval pricing like any other background amplification.
    // The trigger opens the REPL bookkeeping on both ends; `done` closes it.
    const auto record_repl = [this, tenant](int n, bool done) {
      (void)PostToNode(n, [tenant, done](kv::StorageNode& sn) {
        if (done) {
          sn.tracker().RecordInternalOpDone(tenant,
                                            iosched::InternalOp::kReplicate);
        } else {
          sn.tracker().RecordTrigger(tenant, AppRequest::kPut,
                                     iosched::InternalOp::kReplicate);
        }
      });
    };
    record_repl(src_node, false);
    record_repl(node, false);
    const iosched::IoTag repl_tag{tenant, AppRequest::kPut,
                                  iosched::InternalOp::kReplicate,
                                  TraceContext{}};
    auto scan_src = [this, tenant, slots = slots,
                     repl_tag](kv::StorageNode& n) {
      return ScanSlots(n, tenant, slots, repl_tag,
                       "missing source partition during catch-up");
    };
    Result<ScanEntries> src_scan = co_await CallOnNode(
        src_node, options_.rpc_latency, std::move(scan_src));
    if (!src_scan.ok()) {
      record_repl(src_node, true);
      record_repl(node, true);
      co_return src_scan.status();
    }
    std::map<std::string, std::string> authoritative;
    for (auto& [k, v] : src_scan.value()) {
      authoritative.emplace(std::move(k), std::move(v));
    }
    // WAL replay may have resurrected keys deleted cluster-wide while the
    // node was down; sweep anything the source no longer has. The slot
    // filter runs node-side (pure key hash); the authoritative diff runs
    // here against the map we just assembled.
    const char* const kMissing = "missing partition during catch-up";
    auto scan_dst = [this, tenant, slots = slots, repl_tag,
                     kMissing](kv::StorageNode& n) {
      return ScanSlots(n, tenant, slots, repl_tag, kMissing);
    };
    Result<ScanEntries> dst_scan =
        co_await CallOnNode(node, options_.rpc_latency, std::move(scan_dst));
    std::vector<std::string> stale;
    Status copy = dst_scan.status();
    if (copy.ok()) {
      for (auto& [k, v] : dst_scan.value()) {
        if (authoritative.count(k) == 0) {
          stale.push_back(std::move(k));
        }
      }
      ScanEntries puts;
      puts.reserve(authoritative.size());
      for (const auto& [k, v] : authoritative) {
        puts.emplace_back(k, v);
      }
      auto apply = [tenant, puts = std::move(puts), stale = std::move(stale),
                    kMissing](kv::StorageNode& n) mutable {
        return ApplyOps(n, tenant, std::move(puts), std::move(stale),
                        TraceContext{}, iosched::InternalOp::kReplicate,
                        kMissing);
      };
      const ApplyResult applied =
          co_await CallOnNode(node, options_.rpc_latency, std::move(apply));
      repl_[node].catchup_keys += applied.puts_applied;
      repl_[node].catchup_bytes += applied.put_value_bytes;
      copy = applied.status;
    }
    record_repl(src_node, true);
    record_repl(node, true);
    if (!copy.ok()) {
      co_return copy;
    }
    repl_[node].catchup_lag_slots -=
        static_cast<int>(slots.size());
  }
  co_return Status::Ok();
}

ClusterStats Cluster::Snapshot() const {
  ClusterStats s;
  s.time_ns = loop_.Now();
  s.nodes.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    s.nodes.push_back(n->Snapshot());
  }
  const int rf = shard_map_.replication_factor();
  for (int n = 0; n < num_nodes(); ++n) {
    kv::ReplicationSnapshot& r = s.nodes[n].replication;
    r.enabled = rf > 1;
    r.alive = node_state_[n].alive;
    r.syncing = node_state_[n].syncing;
    r.fanout_puts = repl_[n].fanout_puts;
    r.fanout_bytes = repl_[n].fanout_bytes;
    r.failover_gets = repl_[n].failover_gets;
    r.catchup_keys = repl_[n].catchup_keys;
    r.catchup_bytes = repl_[n].catchup_bytes;
    r.catchup_lag_slots = repl_[n].catchup_lag_slots;
  }
  for (const auto& [t, state] : tenants_) {
    for (int slot = 0; slot < shard_map_.shards_per_tenant(); ++slot) {
      const std::vector<int> replicas = shard_map_.ReplicasOf(t, slot);
      ++s.nodes[replicas[0]].replication.leader_slots;
      for (size_t i = 1; i < replicas.size(); ++i) {
        ++s.nodes[replicas[i]].replication.follower_slots;
      }
    }
  }
  s.tenants.reserve(tenants_.size());
  for (const auto& [t, state] : tenants_) {
    ClusterStats::TenantEntry e;
    e.tenant = t;
    e.global = state.global;
    e.compaction = state.compaction;
    e.slot_homes = shard_map_.Assignment(t);
    s.tenants.push_back(std::move(e));
  }
  s.rebalances.assign(rebalance_log_.records().begin(),
                      rebalance_log_.records().end());
  return s;
}

}  // namespace libra::cluster

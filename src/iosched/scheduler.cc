#include "src/iosched/scheduler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace libra::iosched {
namespace {

// Affordability slack for floating-point budget arithmetic.
constexpr double kEps = 1e-9;

// Cheapest plausible chunk (a 1KB read is ~1 VOP by construction); deficits
// at or below this cannot buy anything, so they do not hold a round open.
constexpr double kMinChunkCostVops = 1.0;

// Calls f(index) for every set bit of `word`, lowest first; `base` is the
// index of the word's bit 0.
template <typename F>
void ForEachBit(uint64_t word, size_t base, F&& f) {
  while (word != 0) {
    f(base + static_cast<size_t>(std::countr_zero(word)));
    word &= word - 1;
  }
}

}  // namespace

void IoScheduler::TenantBits::Insert(size_t i) {
  assert(i <= size_);
  ++size_;
  if (words_.size() * 64 < size_) {
    words_.push_back(0);
  }
  const size_t wi = i / 64;
  for (size_t k = words_.size() - 1; k > wi; --k) {
    words_[k] = (words_[k] << 1) | (words_[k - 1] >> 63);
  }
  const uint64_t low = (uint64_t{1} << (i % 64)) - 1;
  words_[wi] = (words_[wi] & low) | ((words_[wi] & ~low) << 1);
}

size_t IoScheduler::TenantBits::Next(size_t i) const {
  size_t wi = i / 64;
  if (wi >= words_.size()) {
    return kNone;
  }
  uint64_t word = words_[wi] & (~uint64_t{0} << (i % 64));
  while (word == 0) {
    if (++wi == words_.size()) {
      return kNone;
    }
    word = words_[wi];
  }
  return wi * 64 + static_cast<size_t>(std::countr_zero(word));
}

IoScheduler::IoScheduler(sim::EventLoop& loop, ssd::SsdDevice& device,
                         std::unique_ptr<CostModel> cost_model,
                         SchedulerOptions options)
    : loop_(loop),
      device_(device),
      cost_model_(std::move(cost_model)),
      options_(options) {
  assert(cost_model_ != nullptr);
  assert(options_.queue_depth > 0);
  // Deficit carry headroom: must cover the most expensive single chunk
  // *under the active cost model* (classic DRR requires quantum+carry >=
  // max packet cost), or expensive ops would never become affordable and
  // their tenants would starve beyond what the model itself implies.
  const uint32_t max_chunk =
      options_.enable_chunking ? options_.chunk_bytes : 1024 * 1024;
  max_carry_vops_ = std::max(
      {64.0, cost_model_->Cost(ssd::IoType::kRead, max_chunk),
       cost_model_->Cost(ssd::IoType::kWrite, max_chunk)});
  if (options_.trace_capacity > 0) {
    trace_ = std::make_unique<obs::TraceRing>(options_.trace_capacity);
  }
  if (options_.span_capacity > 0) {
    spans_ = std::make_unique<obs::SpanCollector>(options_.span_capacity,
                                                  options_.span_sample_every,
                                                  options_.span_id_seed);
    // The tracker feeds the estimator: one ledger, so the observed q̂
    // matrix conserves the tracker's VOPs and requests bit-for-bit.
    tracker_.AttachAttribution(&spans_->attribution());
  }
  chunk_ctx_.reserve(static_cast<size_t>(options_.queue_depth));
}

size_t IoScheduler::LowerBound(TenantId id) const {
  size_t lo = 0;
  size_t hi = tenants_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (tenants_[mid].id < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

IoScheduler::Tenant* IoScheduler::FindTenant(TenantId id) {
  const size_t i = LowerBound(id);
  return (i < tenants_.size() && tenants_[i].id == id) ? &tenants_[i]
                                                       : nullptr;
}

const IoScheduler::Tenant* IoScheduler::FindTenant(TenantId id) const {
  const size_t i = LowerBound(id);
  return (i < tenants_.size() && tenants_[i].id == id) ? &tenants_[i]
                                                       : nullptr;
}

IoScheduler::Tenant& IoScheduler::GetTenant(TenantId id) {
  const size_t i = LowerBound(id);
  if (i < tenants_.size() && tenants_[i].id == id) {
    return tenants_[i];
  }
  Tenant t;
  t.id = id;
  t.lifecycle = std::make_unique<TenantLifecycleStats>();
  queued_bits_.Insert(i);
  inflight_bits_.Insert(i);
  went_idle_bits_.Insert(i);
  return *tenants_.insert(tenants_.begin() + static_cast<ptrdiff_t>(i),
                          std::move(t));
}

const TenantLifecycleStats* IoScheduler::lifecycle(TenantId tenant) const {
  const Tenant* t = FindTenant(tenant);
  return t == nullptr ? nullptr : t->lifecycle.get();
}

void IoScheduler::SetAllocation(TenantId tenant, double vops_per_sec) {
  assert(vops_per_sec >= 0.0);
  GetTenant(tenant).allocation = vops_per_sec;
}

double IoScheduler::Allocation(TenantId tenant) const {
  const Tenant* t = FindTenant(tenant);
  return t == nullptr ? 0.0 : t->allocation;
}

sim::Task<void> IoScheduler::Read(const IoTag& tag, uint64_t offset,
                                  uint32_t size) {
  return Submit(tag, ssd::IoType::kRead, offset, size, {});
}

sim::Task<void> IoScheduler::Write(const IoTag& tag, uint64_t offset,
                                   uint32_t size) {
  return Submit(tag, ssd::IoType::kWrite, offset, size, {});
}

sim::Task<void> IoScheduler::WriteShared(uint64_t offset, uint32_t size,
                                         std::vector<IoShare> manifest) {
  assert(!manifest.empty());
  if (manifest.size() == 1) {
    // Degenerate batch of one: exactly a plain write.
    return Submit(manifest[0].tag, ssd::IoType::kWrite, offset, size, {});
  }
#ifndef NDEBUG
  uint64_t manifest_bytes = 0;
  for (const IoShare& s : manifest) {
    assert(s.tag.tenant != kInvalidTenant);
    assert(s.bytes > 0);
    manifest_bytes += s.bytes;
  }
  assert(manifest_bytes == size);
#endif
  const IoTag leader = manifest[0].tag;
  return Submit(leader, ssd::IoType::kWrite, offset, size,
                std::move(manifest));
}

IoScheduler::Op* IoScheduler::AllocOp(const IoTag& tag, ssd::IoType type,
                                      uint64_t offset, uint32_t size) {
  Op* op;
  if (!op_free_.empty()) {
    op = op_free_.back();
    op_free_.pop_back();
  } else {
    op_arena_.emplace_back();
    op = &op_arena_.back();
  }
  op->tag = tag;
  op->type = type;
  op->offset = offset;
  op->size = size;
  op->dispatched = 0;
  op->chunks_inflight = 0;
  op->chunks_total = 0;
  op->submit_time = loop_.Now();
  op->first_dispatch = 0;
  op->cost_accum = 0.0;
  op->done = nullptr;
  op->manifest.clear();
  return op;
}

void IoScheduler::FreeOp(Op* op) {
  op->done = nullptr;  // recycled Ops must never touch a stale OneShot
  op_free_.push_back(op);
}

sim::Task<void> IoScheduler::Submit(IoTag tag, ssd::IoType type,
                                    uint64_t offset, uint32_t size,
                                    std::vector<IoShare> manifest) {
  assert(tag.tenant != kInvalidTenant);
  sim::OneShot<bool> done(loop_);
  Tenant& tenant = GetTenant(tag.tenant);  // auto-registers (allocation 0)
  if (size == 0) {
    // Zero-size IO: nothing to dispatch or charge. Completes immediately
    // with zero chunks; recorded in the lifecycle stats so callers can see
    // the (degenerate) op happened.
    tenant.lifecycle->Mutable(tag.app, tag.internal).RecordOp(0, 0, 0, 0);
    if (trace_ != nullptr) {
      const SimTime now = loop_.Now();
      trace_->Record({now, obs::TraceEventType::kSubmit, tag.tenant,
                      static_cast<uint8_t>(tag.app),
                      static_cast<uint8_t>(tag.internal),
                      type == ssd::IoType::kWrite, offset, 0, 0, 0, 0});
      trace_->Record({now, obs::TraceEventType::kComplete, tag.tenant,
                      static_cast<uint8_t>(tag.app),
                      static_cast<uint8_t>(tag.internal),
                      type == ssd::IoType::kWrite, offset, 0, 0, 0, 0});
    }
    done.Set(true);
    co_await done.Wait();
    co_return;
  }
  Op* op = AllocOp(tag, type, offset, size);
  op->done = &done;
  op->manifest = std::move(manifest);
  if (trace_ != nullptr) {
    trace_->Record({op->submit_time, obs::TraceEventType::kSubmit, tag.tenant,
                    static_cast<uint8_t>(tag.app),
                    static_cast<uint8_t>(tag.internal),
                    type == ssd::IoType::kWrite, offset, size, 0, 0, 0});
  }
  if (!tenant.active() && tenant.busy_since < 0) {
    tenant.busy_since = loop_.Now();  // idle -> active: busy period opens
  }
  tenant.queue.push_back(op);
  queued_bits_.Set(IndexOf(tenant));
  Pump();
  co_await done.Wait();
}

uint32_t IoScheduler::NextChunkBytes(const Op& op) const {
  const uint32_t remaining = op.size - op.dispatched;
  if (!options_.enable_chunking) {
    return remaining;
  }
  return std::min(remaining, options_.chunk_bytes);
}

SimDuration IoScheduler::ConsumeDemandTime(TenantId tenant) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return 0;
  }
  const SimTime now = loop_.Now();
  if (t->busy_since >= 0) {
    t->busy_accum += now - t->busy_since;
    t->busy_since = now;
  }
  const SimDuration out = t->busy_accum;
  t->busy_accum = 0;
  return out;
}

size_t IoScheduler::backlog() const {
  size_t n = 0;
  for (const Tenant& t : tenants_) {
    n += t.queue.size();
  }
  return n;
}

bool IoScheduler::NewRound() {
  // Active = queued or in flight; weights sum in id order.
  const std::vector<uint64_t>& queued = queued_bits_.words();
  const std::vector<uint64_t>& inflight = inflight_bits_.words();
  double weight_sum = 0.0;
  int active = 0;
  for (size_t w = 0; w < queued.size(); ++w) {
    ForEachBit(queued[w] | inflight[w], w * 64, [&](size_t i) {
      weight_sum += tenants_[i].allocation;
      ++active;
    });
  }
  if (active == 0) {
    return false;
  }
  ++rounds_;
  std::vector<uint64_t>& went_idle = went_idle_bits_.words();
  for (size_t w = 0; w < went_idle.size(); ++w) {
    ForEachBit(std::exchange(went_idle[w], 0), w * 64, [&](size_t i) {
      Tenant& t = tenants_[i];
      if (!t.active()) {
        // Classic DRR: an idle tenant does not hoard budget (this is what
        // makes the scheduler work-conserving). Debt is kept.
        t.deficit = std::min(t.deficit, 0.0);
      }
    });
  }
  for (size_t w = 0; w < queued.size(); ++w) {
    ForEachBit(queued[w] | inflight[w], w * 64, [&](size_t i) {
      // Weight-proportional quantum. With all-zero weights (only
      // best-effort tenants active) fall back to equal shares so the
      // device never idles.
      Tenant& t = tenants_[i];
      const double share = weight_sum > 0.0
                               ? t.allocation / weight_sum
                               : 1.0 / static_cast<double>(active);
      const double quantum = share * options_.round_quantum_vops;
      t.deficit = std::min(t.deficit + quantum, quantum + max_carry_vops_);
    });
  }
  return true;
}

uint32_t IoScheduler::AllocChunkCtx() {
  if (chunk_free_ != kNilIndex) {
    const uint32_t idx = chunk_free_;
    chunk_free_ = chunk_ctx_[idx].next_free;
    return idx;
  }
  chunk_ctx_.emplace_back();
  return static_cast<uint32_t>(chunk_ctx_.size() - 1);
}

void IoScheduler::DispatchChunk(Tenant& tenant) {
  assert(!tenant.queue.empty());
  Op* op = tenant.queue.front();
  const uint32_t chunk = NextChunkBytes(*op);
  const double cost = cost_model_->Cost(op->type, chunk);
  tenant.deficit -= cost;
  const uint64_t chunk_offset = op->offset + op->dispatched;
  if (op->dispatched == 0) {
    // First chunk leaves the DRR queue: the queue-wait span ends here.
    op->first_dispatch = loop_.Now();
    if (trace_ != nullptr) {
      trace_->Record({op->first_dispatch, obs::TraceEventType::kDispatch,
                      tenant.id, static_cast<uint8_t>(op->tag.app),
                      static_cast<uint8_t>(op->tag.internal),
                      op->type == ssd::IoType::kWrite, op->offset, op->size, 0,
                      0, 0});
    }
  }
  op->dispatched += chunk;
  ++op->chunks_inflight;
  ++op->chunks_total;
  ++tenant.chunks_inflight;
  ++inflight_;
  const size_t idx = IndexOf(tenant);
  inflight_bits_.Set(idx);
  if (op->fully_dispatched()) {
    tenant.queue.pop_front();  // op stays alive in the pool until completion
    if (tenant.queue.empty()) {
      queued_bits_.Clear(idx);
    }
  }

  const uint32_t ctx_idx = AllocChunkCtx();
  ChunkCtx& ctx = chunk_ctx_[ctx_idx];
  ctx.op = op;
  ctx.tenant = tenant.id;
  ctx.cost = cost;
  ctx.chunk = chunk;
  ctx.shares.clear();
  if (!op->manifest.empty()) {
    // Shared chunk: slice the manifest by this chunk's byte range and
    // pre-split the chunk's VOP cost byte-proportionally. All but the last
    // overlapping share take their byte fraction; the last takes the
    // remainder, so the slice costs reconstruct `cost` bit-for-bit.
    const uint64_t lo = chunk_offset - op->offset;
    const uint64_t hi = lo + chunk;
    uint64_t pos = 0;
    for (const IoShare& s : op->manifest) {
      const uint64_t s_lo = pos;
      pos += s.bytes;
      if (pos <= lo) {
        continue;
      }
      if (s_lo >= hi) {
        break;
      }
      const uint32_t overlap = static_cast<uint32_t>(std::min(pos, hi) -
                                                     std::max(s_lo, lo));
      ctx.shares.push_back({s.tag, overlap, 0.0});
    }
    assert(!ctx.shares.empty());
    double assigned = 0.0;
    for (size_t i = 0; i + 1 < ctx.shares.size(); ++i) {
      ctx.shares[i].cost = cost * (static_cast<double>(ctx.shares[i].bytes) /
                                   static_cast<double>(chunk));
      assigned += ctx.shares[i].cost;
    }
    ctx.shares.back().cost = cost - assigned;
  }
  device_.Submit(ssd::IoRequest{op->type, chunk_offset, chunk},
                 [this, ctx_idx] { OnChunkComplete(ctx_idx); });
}

void IoScheduler::OnChunkComplete(uint32_t index) {
  // Record against the slot, copy the scalars out, then recycle it: the
  // Pump below may dispatch into it.
  ChunkCtx& slot = chunk_ctx_[index];
  Op* op = slot.op;
  const TenantId tenant_id = slot.tenant;
  const double cost = slot.cost;
  const uint32_t chunk = slot.chunk;
  if (slot.shares.empty()) {
    tracker_.RecordIo(op->tag, op->type, chunk, cost);
  } else {
    // Shared chunk: each contributor is charged its pre-split exact share.
    for (const ChunkShare& s : slot.shares) {
      tracker_.RecordIoShare(s.tag, op->type, s.bytes, s.cost);
    }
    slot.shares.clear();  // free-list invariant: recycled slots hold none
  }
  if (spans_ != nullptr) {
    op->cost_accum += cost;
  }
  slot.next_free = chunk_free_;
  chunk_free_ = index;

  --op->chunks_inflight;
  Tenant& t = *FindTenant(tenant_id);  // tenants are never removed
  if (--t.chunks_inflight == 0) {
    inflight_bits_.Clear(IndexOf(t));
    if (t.queue.empty()) {
      went_idle_bits_.Set(IndexOf(t));
    }
  }
  if (op->fully_dispatched() && op->chunks_inflight == 0) {
    const SimTime now = loop_.Now();
    const uint64_t queue_wait =
        static_cast<uint64_t>(op->first_dispatch - op->submit_time);
    const uint64_t service =
        static_cast<uint64_t>(now - op->first_dispatch);
    t.lifecycle->Mutable(op->tag.app, op->tag.internal)
        .RecordOp(queue_wait, service, op->chunks_total, op->size);
    if (trace_ != nullptr) {
      trace_->Record({now, obs::TraceEventType::kComplete, tenant_id,
                      static_cast<uint8_t>(op->tag.app),
                      static_cast<uint8_t>(op->tag.internal),
                      op->type == ssd::IoType::kWrite, op->offset, op->size,
                      op->chunks_total, queue_wait, service});
    }
    if (spans_ != nullptr) {
      EmitDeviceIoSpan(*op, now);
    }
    op->done->Set(true);
    FreeOp(op);  // last reference: recycle for the next Submit
  }
  if (!t.active() && t.busy_since >= 0) {
    // Active -> idle (a same-instant resubmission inside the Set above
    // keeps the tenant active, so a saturating closed loop never closes
    // its period; a genuine zero-duration gap accumulates zero anyway).
    t.busy_accum += loop_.Now() - t.busy_since;
    t.busy_since = -1;
  }
  --inflight_;
  // Deferred so that same-instant worker resumptions (the Set above)
  // enqueue their next op first — otherwise a closed-loop tenant looks
  // idle for the zero-duration gap between completion and resubmission
  // and a round change in that gap would wipe its budget.
  loop_.Post([this] { Pump(); });
}

void IoScheduler::EmitDeviceIoSpan(const Op& op, SimTime now) {
  // Parent: the op's own context, or — for a shared op scheduled under an
  // untraced leader — the first traced manifest rider.
  TraceContext parent = op.tag.ctx;
  if (!parent.valid()) {
    for (const IoShare& s : op.manifest) {
      if (s.tag.ctx.valid()) {
        parent = s.tag.ctx;
        break;
      }
    }
    if (!parent.valid()) {
      return;  // nothing traced rode this op
    }
  }
  obs::SpanRecord rec;
  rec.trace_id = parent.trace_id;
  rec.span_id = spans_->MintChild(parent).span_id;
  rec.parent_span = parent.span_id;
  rec.kind = obs::SpanKind::kDeviceIo;
  rec.app = static_cast<uint8_t>(op.tag.app);
  rec.internal = static_cast<uint8_t>(op.tag.internal);
  rec.is_write = op.type == ssd::IoType::kWrite;
  rec.tenant = op.tag.tenant;
  rec.start_ns = op.submit_time;
  rec.end_ns = now;
  rec.bytes = op.size;
  rec.vops = op.cost_accum;
  // A group-committed IOP carries every rider's context: link the traced
  // ones beyond the parent so followers' traces reach this device IO.
  for (const IoShare& s : op.manifest) {
    if (s.tag.ctx.valid() && !(s.tag.ctx == parent)) {
      rec.links.Add(s.tag.ctx);
    }
  }
  spans_->Record(rec);
}

void IoScheduler::Pump() {
  if (pumping_) {
    return;
  }
  pumping_ = true;
  // Bound successive budget refills within one pump so a queue whose head
  // chunk exceeds the deficit cap cannot spin the round counter.
  int refills_left = 8;
  while (inflight_ < options_.queue_depth) {
    // Scan the queued tenants ring-wise from the cursor for an eligible
    // (work + budget) one: [start, end) of the id-sorted vector, then
    // [0, start).
    bool any_queued = false;
    const auto scan = [&](size_t lo, size_t hi) -> Tenant* {
      for (size_t i = queued_bits_.Next(lo); i < hi;
           i = queued_bits_.Next(i + 1)) {
        any_queued = true;
        Tenant& t = tenants_[i];
        const Op& head = *t.queue.front();
        const double cost =
            cost_model_->Cost(head.type, NextChunkBytes(head));
        if (t.deficit + kEps >= cost) {
          return &t;
        }
      }
      return nullptr;
    };
    const size_t start = LowerBound(ring_cursor_);
    Tenant* chosen = scan(start, tenants_.size());
    if (chosen == nullptr) {
      chosen = scan(0, start);
    }

    if (chosen != nullptr) {
      // DRR: keep serving this tenant while it stays eligible (the cursor
      // only moves past it when it runs out of budget or work).
      ring_cursor_ = chosen->id;
      DispatchChunk(*chosen);
      continue;
    }

    if (!any_queued) {
      break;  // nothing to dispatch
    }

    // The round stays open while some tenant still has usable budget and
    // in-flight work: its closed-loop workers will resubmit on completion,
    // and refilling now would let cheap-op tenants outrun their shares.
    bool holds_round_open = false;
    for (size_t i = inflight_bits_.Next(0); i != TenantBits::kNone;
         i = inflight_bits_.Next(i + 1)) {
      const Tenant& t = tenants_[i];
      if (t.queue.empty() && t.deficit > kMinChunkCostVops) {
        holds_round_open = true;
        break;
      }
    }
    if (holds_round_open) {
      break;  // a completion will re-enter Pump
    }

    if (refills_left-- <= 0 || !NewRound()) {
      // Refills exhausted or impossible: force the lowest-id queued tenant
      // into debt so the scheduler always makes progress (the debt is
      // repaid out of future quanta, preserving long-run proportions).
      DispatchChunk(tenants_[queued_bits_.Next(0)]);
    }
  }
  pumping_ = false;
}

}  // namespace libra::iosched

#include "src/lsm/db.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

namespace libra::lsm {

using iosched::AppRequest;
using iosched::InternalOp;
using iosched::IoTag;

namespace {

bool InternalOrder(const MemTable::Entry& a, const MemTable::Entry& b) {
  return CompareInternalKey(a.key, a.seq, b.key, b.seq) < 0;
}

// Sorts by internal key and keeps only the newest version of each user key
// (and no tombstone, if `drop_tombstones`).
void MergeNewest(std::vector<MemTable::Entry>* entries, bool drop_tombstones) {
  std::sort(entries->begin(), entries->end(), InternalOrder);
  // Compacts in place. Compare against an explicit copy of the previous
  // user key: its entry may have been moved from, and a dropped tombstone
  // must still shadow the older versions behind it.
  size_t kept = 0;
  std::string last_user_key;
  bool have_last = false;
  for (size_t i = 0; i < entries->size(); ++i) {
    MemTable::Entry& e = (*entries)[i];
    if (have_last && e.key == last_user_key) {
      continue;  // shadowed older version
    }
    last_user_key = e.key;
    have_last = true;
    if (drop_tombstones && e.type == ValueType::kDelete) {
      continue;
    }
    if (kept != i) {
      (*entries)[kept] = std::move(e);
    }
    ++kept;
  }
  entries->resize(kept);
}

}  // namespace

LsmDb::LsmDb(sim::EventLoop& loop, fs::SimFs& fs,
             iosched::IoScheduler& scheduler, iosched::TenantId tenant,
             std::string name_prefix, LsmOptions options)
    : loop_(loop),
      fs_(fs),
      scheduler_(scheduler),
      tenant_(tenant),
      prefix_(std::move(name_prefix)),
      options_(options),
      stall_mu_(loop),
      stall_cv_(loop) {
  assert(options_.num_levels >= 2);
  if (options_.shared_block_cache != nullptr) {
    cache_ = options_.shared_block_cache;
  } else {
    owned_cache_ = std::make_unique<BlockCache>(options_.block_cache_bytes);
    cache_ = owned_cache_.get();
  }
  auto v = std::make_shared<Version>();
  v->levels.resize(options_.num_levels);
  current_ = v;
  compact_cursor_.assign(options_.num_levels, 0);
}

std::string LsmDb::TableName(uint64_t number) const {
  return prefix_ + "/sst_" + std::to_string(number);
}

std::string LsmDb::WalName(uint64_t number) const {
  return prefix_ + "/wal_" + std::to_string(number);
}

WalOptions LsmDb::MakeWalOptions() const {
  WalOptions w;
  w.group_commit = options_.wal_group_commit;
  w.group_max_bytes = options_.wal_group_max_bytes;
  w.group_max_records = options_.wal_group_max_records;
  return w;
}

uint64_t LsmDb::MaxBytesForLevel(int level) const {
  uint64_t max = options_.max_bytes_level1;
  for (int l = 1; l < level; ++l) {
    max *= 8;
  }
  return max;
}

Status LsmDb::Open() {
  mem_ = std::make_unique<MemTable>();
  // Boot-time recovery. There is no manifest (see header): sst_* files
  // left by a previous incarnation are orphans whose metadata died with
  // it and are deleted here; every surviving wal_* file is replayed in
  // file-number order, rebuilding acked-but-unflushed writes in the fresh
  // memtable. Flushed data does not survive a crash locally — a
  // replicated deployment restores it via the catch-up copy stream.
  const std::string wal_prefix = prefix_ + "/wal_";
  const std::string sst_prefix = prefix_ + "/sst_";
  std::vector<std::pair<uint64_t, std::string>> wals;
  uint64_t max_number = 0;
  for (const std::string& name : fs_.List(prefix_ + "/")) {
    if (name.size() > wal_prefix.size() &&
        name.compare(0, wal_prefix.size(), wal_prefix) == 0) {
      const uint64_t num =
          std::strtoull(name.c_str() + wal_prefix.size(), nullptr, 10);
      max_number = std::max(max_number, num);
      wals.emplace_back(num, name);
    } else if (name.size() > sst_prefix.size() &&
               name.compare(0, sst_prefix.size(), sst_prefix) == 0) {
      const uint64_t num =
          std::strtoull(name.c_str() + sst_prefix.size(), nullptr, 10);
      max_number = std::max(max_number, num);
      fs_.Delete(name);
    }
  }
  std::sort(wals.begin(), wals.end());
  SequenceNumber max_seq = seq_;
  for (const auto& [num, name] : wals) {
    WriteAheadLog wal(fs_, name, MakeWalOptions(), &wal_counters_);
    if (Status s = wal.Open(); !s.ok()) {
      return s;
    }
    Status s = wal.Replay([&](const Record& rec) {
      if (rec.type == ValueType::kDelete) {
        mem_->Delete(rec.key, rec.seq);
      } else {
        mem_->Put(rec.key, rec.seq, rec.value);
      }
      max_seq = std::max(max_seq, rec.seq);
      ++recovered_records_;
      recovered_bytes_ += rec.key.size() + rec.value.size();
    });
    if (!s.ok()) {
      return s;
    }
    ++recovered_wal_files_;
    recovered_wals_.push_back(name);
  }
  seq_ = max_seq;
  // Number new files past every survivor: a pre-crash incarnation may have
  // created files this one never learns about until they collide.
  next_file_number_ = std::max(next_file_number_, max_number + 1);
  wal_ = std::make_unique<WriteAheadLog>(fs_, WalName(next_file_number_++),
                                         MakeWalOptions(), &wal_counters_);
  return wal_->Open();
}

bool LsmDb::WriteStalled() const {
  if (imm_ != nullptr &&
      mem_->ApproximateMemoryUsage() >= options_.write_buffer_bytes) {
    return true;  // both buffers full: wait for the flush
  }
  return static_cast<int>(current_->levels[0].size()) >=
         options_.l0_stop_writes;
}

Status LsmDb::SealMemtable() {
  assert(imm_ == nullptr);
  imm_ = std::move(mem_);
  imm_wal_ = std::move(wal_);
  if (!recovered_wals_.empty()) {
    // The sealed memtable absorbs the replayed records; once its flush
    // lands, the recovered WAL files are fully covered and can go.
    recovered_in_imm_ = true;
  }
  mem_ = std::make_unique<MemTable>();
  wal_ = std::make_unique<WriteAheadLog>(fs_, WalName(next_file_number_++),
                                         MakeWalOptions(), &wal_counters_);
  if (Status s = wal_->Open(); !s.ok()) {
    return s;
  }
  // Attribute the flush to the PUTs that filled the buffer (§4.1).
  scheduler_.tracker().RecordTrigger(tenant_, AppRequest::kPut,
                                     InternalOp::kFlush);
  if (!flush_running_) {
    flush_running_ = true;
    sim::Detach(FlushJob());
  }
  return Status::Ok();
}

sim::Task<Status> LsmDb::WriteInternal(std::string_view key,
                                       std::string_view value, ValueType type,
                                       TraceContext ctx, InternalOp op) {
  const OpGuard guard(this);
  if (dead_) {
    co_return Status::Unavailable("db killed");
  }
  // Backpressure: L0 overload or both write buffers full.
  if (WriteStalled()) {
    const SimTime stall_start = loop_.Now();
    ++stalls_;
    while (WriteStalled()) {
      co_await stall_mu_.Lock();
      if (!dead_ && WriteStalled()) {
        co_await stall_cv_.Wait(stall_mu_);
      }
      stall_mu_.Unlock();
      if (dead_) {
        co_return Status::Unavailable("db killed");
      }
    }
    stall_ns_ += static_cast<uint64_t>(loop_.Now() - stall_start);
  }

  const SequenceNumber seq = ++seq_;
  const IoTag tag{tenant_, AppRequest::kPut, op, ctx};
  Status s = co_await wal_->Append(tag, key, seq, type, value);
  if (dead_) {
    // The record may or may not be durable; the crash decides. Either way
    // this incarnation stops mutating state — replay arbitrates at boot.
    co_return Status::Unavailable("db killed");
  }
  if (!s.ok()) {
    co_return s;
  }
  // Insert after durability; ordering between concurrent writers is by
  // sequence number regardless of insertion order.
  if (type == ValueType::kDelete) {
    mem_->Delete(key, seq, ctx);
  } else {
    mem_->Put(key, seq, value, ctx);
  }
  ++puts_;
  if (mem_->ApproximateMemoryUsage() >= options_.write_buffer_bytes &&
      imm_ == nullptr) {
    s = SealMemtable();
  }
  co_return s;
}

sim::Task<Status> LsmDb::Put(std::string_view key, std::string_view value,
                             TraceContext ctx, InternalOp op) {
  return WriteInternal(key, value, ValueType::kPut, ctx, op);
}

sim::Task<Status> LsmDb::Delete(std::string_view key, TraceContext ctx,
                                InternalOp op) {
  return WriteInternal(key, "", ValueType::kDelete, ctx, op);
}

sim::Task<LsmDb::GetResult> LsmDb::Get(std::string_view key, TraceContext ctx) {
  const OpGuard guard(this);
  ++gets_;
  const SequenceNumber snapshot = seq_;
  const IoTag tag{tenant_, AppRequest::kGet, InternalOp::kNone, ctx};
  GetResult out;
  if (dead_) {
    out.status = Status::Unavailable("db killed");
    co_return out;
  }

  // Memtables first (no IO).
  for (const MemTable* mt : {mem_.get(), imm_.get()}) {
    if (mt == nullptr) {
      continue;
    }
    const MemTable::GetResult r = mt->Get(key, snapshot);
    if (r.found) {
      if (r.deleted) {
        out.status = Status::NotFound("deleted");
      } else {
        out.value = r.value;
      }
      co_return out;
    }
  }

  // Table lookups against an immutable version snapshot; the refs keep
  // files alive even if a compaction replaces them mid-read.
  const VersionRef version = current_;
  // Overlapping levels probe every covering file newest-first: L0 under
  // leveled, every tier under size-tiered (runs only leave a tier by
  // whole-tier merges, so run recency orders version recency globally).
  // A leveled L1+ level is sorted and disjoint: its one candidate is found
  // by binary search, then probed like any other covering file.
  const int overlapping_levels =
      options_.compaction_policy == CompactionPolicy::kSizeTiered
          ? options_.num_levels
          : 1;
  for (int level = 0; level < options_.num_levels; ++level) {
    const std::vector<TableRef>& files = version->levels[level];
    auto first = files.begin();
    auto last = files.end();
    if (level >= overlapping_levels) {
      first = std::lower_bound(
          files.begin(), files.end(), key,
          [](const TableRef& t, std::string_view k) { return t->largest < k; });
      last = first == files.end() ? first : first + 1;
    }
    for (auto it = first; it != last; ++it) {
      const TableRef& table = *it;
      if (key < table->smallest || key > table->largest) {
        continue;
      }
      ++tables_probed_;
      SstableReader::GetResult r =
          co_await table->reader->Get(tag, key, snapshot);
      if (dead_) {
        out.status = Status::Unavailable("db killed");
        co_return out;
      }
      if (!r.status.ok()) {
        out.status = r.status;
        co_return out;
      }
      if (r.found) {
        if (r.deleted) {
          out.status = Status::NotFound("deleted");
        } else {
          out.value = std::move(r.value);
        }
        co_return out;
      }
    }
  }
  out.status = Status::NotFound("no entry");
  co_return out;
}

sim::Task<LsmDb::ScanResult> LsmDb::Scan(std::string_view start,
                                         std::string_view end, size_t limit,
                                         TraceContext ctx) {
  const OpGuard guard(this);
  ++scans_;
  ScanResult out;
  if (dead_) {
    out.status = Status::Unavailable("db killed");
    co_return out;
  }
  const SequenceNumber snapshot = seq_;
  const IoTag tag{tenant_, AppRequest::kScan, InternalOp::kNone, ctx};

  // Pin one consistent cut before any suspension: the version snapshot
  // plus the memtables' in-range entries (no IO).
  const VersionRef base = current_;
  const std::vector<MemTable::Entry> mem_entries =
      PinMemtables(start, end, snapshot);

  // One streaming cursor per table whose range overlaps [start, end); the
  // TableRef pins the file for the cursor's lifetime. Applies uniformly to
  // both compaction policies — leveled L1+ files are merely a disjoint
  // special case of "overlapping runs".
  struct TableSource {
    TableRef table;
    std::unique_ptr<SstableReader::RangeCursor> cursor;
  };
  std::vector<TableSource> tables;
  for (const std::vector<TableRef>& level : base->levels) {
    for (const TableRef& t : level) {
      if (t->largest < start || (!end.empty() && t->smallest >= end)) {
        continue;
      }
      auto seeked = co_await t->reader->Seek(tag, start);
      if (dead_) {
        out.status = Status::Unavailable("db killed");
        co_return out;
      }
      if (!seeked.ok()) {
        out.status = seeked.status();
        co_return out;
      }
      if ((*seeked)->Valid()) {
        tables.push_back(TableSource{t, std::move(*seeked)});
      }
    }
  }

  // K-way merge in internal-key order. The first surfacing of a user key
  // is its newest visible version — it wins, and (value or tombstone)
  // shadows every older version behind it.
  size_t mem_pos = 0;
  std::string last_user_key;
  bool have_last = false;
  while (limit == 0 || out.entries.size() < limit) {
    bool best_is_mem = false;
    int best = -1;
    std::string_view bkey;
    std::string_view bval;
    SequenceNumber bseq = 0;
    ValueType btype = ValueType::kPut;
    if (mem_pos < mem_entries.size()) {
      const MemTable::Entry& e = mem_entries[mem_pos];
      best_is_mem = true;
      bkey = e.key;
      bval = e.value;
      bseq = e.seq;
      btype = e.type;
    }
    for (size_t i = 0; i < tables.size(); ++i) {
      if (!tables[i].cursor->Valid()) {
        continue;
      }
      const Record& r = tables[i].cursor->record();
      if ((!best_is_mem && best < 0) ||
          CompareInternalKey(r.key, r.seq, bkey, bseq) < 0) {
        best_is_mem = false;
        best = static_cast<int>(i);
        bkey = r.key;
        bval = r.value;
        bseq = r.seq;
        btype = r.type;
      }
    }
    if (!best_is_mem && best < 0) {
      break;  // every source exhausted
    }
    if (!end.empty() && bkey >= end) {
      break;  // the global minimum is past the range: so is everything else
    }
    // Versions newer than the snapshot neither emit nor shadow (skipping
    // them lets the older visible version surface next).
    if (bseq <= snapshot) {
      if (!(have_last && bkey == last_user_key)) {
        // Copy before advancing: the views die with the cursor's block.
        last_user_key = std::string(bkey);
        have_last = true;
        if (btype != ValueType::kDelete) {
          out.entries.emplace_back(std::string(bkey), std::string(bval));
          ++scan_keys_;
          scan_bytes_ += bkey.size() + bval.size();
        }
      }
    }
    if (best_is_mem) {
      ++mem_pos;
    } else {
      Status s = co_await tables[best].cursor->Next();
      if (dead_) {
        out.status = Status::Unavailable("db killed");
        co_return out;
      }
      if (!s.ok()) {
        out.status = s;
        co_return out;
      }
    }
  }
  co_return out;
}

std::vector<MemTable::Entry> LsmDb::PinMemtables(std::string_view start,
                                                 std::string_view end,
                                                 SequenceNumber snapshot) const {
  std::vector<MemTable::Entry> entries;
  for (const MemTable* mt : {mem_.get(), imm_.get()}) {
    if (mt == nullptr) {
      continue;
    }
    MemTable::Iterator it(mt);
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      const MemTable::Entry& e = it.entry();
      if (e.key < start || (!end.empty() && e.key >= end) ||
          e.seq > snapshot) {
        continue;
      }
      entries.push_back(e);
    }
  }
  // The two memtables interleave: restore internal order across them.
  std::sort(entries.begin(), entries.end(), InternalOrder);
  return entries;
}

sim::Task<StatusOr<LsmDb::TableRef>> LsmDb::BuildTable(
    const std::vector<MemTable::Entry>& entries, size_t begin, size_t end,
    const iosched::IoTag& tag) {
  assert(begin < end);
  auto handle = std::make_shared<TableHandle>();
  handle->fs = &fs_;
  handle->cache = cache_;
  handle->tenant = tenant_;
  handle->number = next_file_number_++;
  handle->name = TableName(handle->number);
  auto created = fs_.Create(handle->name);
  if (!created.ok()) {
    handle->fs = nullptr;  // nothing to clean up
    co_return created.status();
  }
  handle->file = *created;

  SstableOptions sst_opt;
  sst_opt.block_bytes = options_.block_bytes;
  sst_opt.write_chunk_bytes = options_.write_chunk_bytes;
  sst_opt.bloom_bits_per_key = options_.bloom_bits_per_key;
  SstableBuilder builder(fs_, handle->file, sst_opt);
  for (size_t i = begin; i < end; ++i) {
    const MemTable::Entry& e = entries[i];
    builder.Add(e.key, e.seq, e.type, e.value);
  }
  if (Status s = co_await builder.Finish(tag); !s.ok()) {
    co_return s;
  }
  handle->smallest = builder.smallest_key();
  handle->largest = builder.largest_key();
  handle->size_bytes = fs_.SizeOf(handle->file);
  handle->reader = std::make_unique<SstableReader>(
      fs_, handle->file, *cache_, sst_opt, handle->number, tenant_,
      &read_counters_);
  co_return handle;
}

sim::Task<void> LsmDb::FlushJob() {
  while (imm_ != nullptr && !dead_) {
    const SimTime flush_start = loop_.Now();
    // Collect the sealed memtable in order, gathering the origin spans of
    // the requests whose bytes this flush persists.
    std::vector<MemTable::Entry> entries;
    entries.reserve(imm_->entries());
    obs::SpanLinkSet origins;
    MemTable::Iterator it(imm_.get());
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      entries.push_back(it.entry());
      origins.Add(it.entry().origin);
    }
    // The flush gets its own span (new trace root when no writer was
    // traced); its device IO parents under it via the tag context.
    obs::SpanCollector* spans = scheduler_.spans();
    IoTag tag{tenant_, AppRequest::kPut, InternalOp::kFlush, {}};
    if (spans != nullptr) {
      tag.ctx = spans->MintAlways();
    }
    uint64_t built_bytes = 0;
    if (!entries.empty()) {
      auto built = co_await BuildTable(entries, 0, entries.size(), tag);
      if (dead_) {
        break;  // crash: drop the build (dtor reclaims it), keep the WAL
      }
      if (built.ok()) {
        flush_bytes_ += (*built)->size_bytes;
        built_bytes = (*built)->size_bytes;
        (*built)->lineage = tag.ctx;
        (*built)->origin_links = origins;
        Install({}, {*built}, 0, /*front_insert=*/true);  // newest L0 first
      }
    }
    ++flushes_;
    flush_ns_ += static_cast<uint64_t>(loop_.Now() - flush_start);
    RecordBackgroundSpan(InternalOp::kFlush, tag.ctx, 0, flush_start,
                         built_bytes, origins);
    scheduler_.tracker().RecordInternalOpDone(tenant_, InternalOp::kFlush);
    imm_.reset();
    if (imm_wal_ != nullptr) {
      // A group-commit leader suspended in the rotated log's batch loop
      // still touches its queue when the shared write lands; drain any
      // in-flight appends before destroying the object under it.
      co_await imm_wal_->WaitIdle();
      if (dead_) {
        break;  // crash while draining: keep the log for replay
      }
      imm_wal_->Remove();
      imm_wal_.reset();
    }
    if (recovered_in_imm_) {
      // The flush that just landed persisted the replayed records; the
      // recovered WAL files are now fully covered.
      for (const std::string& name : recovered_wals_) {
        fs_.Delete(name);
      }
      recovered_wals_.clear();
      recovered_in_imm_ = false;
    }
    stall_cv_.NotifyAll();
    MaybeStartCompaction();
  }
  flush_running_ = false;
}

int LsmDb::PickCompactionLevel() const {
  double best_score = 1.0;
  int best_level = -1;
  if (options_.compaction_policy == CompactionPolicy::kSizeTiered) {
    // Fullest tier by run count; the bottom tier self-merges at the same
    // threshold. A single run never merges (nothing to reclaim).
    for (int tier = 0; tier < options_.num_levels; ++tier) {
      const size_t runs = current_->levels[tier].size();
      if (runs < 2) {
        continue;
      }
      const double score =
          static_cast<double>(runs) /
          static_cast<double>(options_.tier_compaction_trigger);
      if (score >= best_score) {
        best_score = score;
        best_level = tier;
      }
    }
    return best_level;
  }
  const double l0_score =
      static_cast<double>(current_->levels[0].size()) /
      static_cast<double>(options_.l0_compaction_trigger);
  if (l0_score >= best_score) {
    best_score = l0_score;
    best_level = 0;
  }
  for (int level = 1; level < options_.num_levels - 1; ++level) {
    uint64_t bytes = 0;
    for (const TableRef& t : current_->levels[level]) {
      bytes += t->size_bytes;
    }
    const double score = static_cast<double>(bytes) /
                         static_cast<double>(MaxBytesForLevel(level));
    if (score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  return best_level;
}

void LsmDb::MaybeStartCompaction() {
  if (compaction_running_ || PickCompactionLevel() < 0) {
    return;
  }
  compaction_running_ = true;
  sim::Detach(CompactionJob());
}

sim::Task<void> LsmDb::CompactionJob() {
  while (!dead_) {
    const int level = PickCompactionLevel();
    if (level < 0) {
      break;
    }
    const CompactionPlan plan =
        options_.compaction_policy == CompactionPolicy::kSizeTiered
            ? PickTieredPlan(level)
            : PickLeveledPlan(level);
    co_await RunCompaction(plan);
  }
  compaction_running_ = false;
}

bool LsmDb::RangesOverlap(const TableHandle& t, std::string_view lo,
                          std::string_view hi) {
  return !(t.largest < lo || hi < t.smallest);
}

LsmDb::CompactionPlan LsmDb::PickLeveledPlan(int level) {
  CompactionPlan plan;
  plan.out_level = level + 1;
  plan.drop_tombstones = plan.out_level == options_.num_levels - 1;
  plan.max_output_bytes = options_.target_file_bytes;
  const Version& base = *current_;
  if (level == 0) {
    // All of L0 (their ranges overlap each other anyway).
    plan.inputs = base.levels[0];
  } else if (!base.levels[level].empty()) {
    // One file, round-robin across the level.
    const std::vector<TableRef>& files = base.levels[level];
    size_t& cursor = compact_cursor_[level];
    cursor %= files.size();
    plan.inputs.push_back(files[cursor]);
    cursor = (cursor + 1) % files.size();
  }
  if (plan.inputs.empty()) {
    return plan;
  }
  // The picked range starts from the first input: "" is a valid key.
  std::string lo = plan.inputs.front()->smallest;
  std::string hi = plan.inputs.front()->largest;
  for (const TableRef& t : plan.inputs) {
    if (t->smallest < lo) {
      lo = t->smallest;
    }
    if (hi < t->largest) {
      hi = t->largest;
    }
  }
  for (const TableRef& t : base.levels[plan.out_level]) {
    if (RangesOverlap(*t, lo, hi)) {
      plan.inputs.push_back(t);
    }
  }
  return plan;
}

LsmDb::CompactionPlan LsmDb::PickTieredPlan(int tier) const {
  CompactionPlan plan;
  // The bottom tier has nowhere deeper to push: it merges in place, which
  // is also the only point tombstones may die (no older version of any key
  // can exist below the merge's inputs).
  plan.drop_tombstones = tier == options_.num_levels - 1;
  plan.out_level = plan.drop_tombstones ? tier : tier + 1;
  // One output run per merge, front-inserted: a run is a single file here,
  // so the newest-first invariant stays "highest number first".
  plan.front_insert = true;
  // Taking every run is what keeps recency tier-ordered (all of tier k
  // stays newer than all of tier k+1), which GET's newest-first probe
  // relies on. A single run never merges (nothing to reclaim).
  if (current_->levels[tier].size() >= 2) {
    plan.inputs = current_->levels[tier];
  }
  return plan;
}

sim::Task<Status> LsmDb::RunCompaction(const CompactionPlan& plan) {
  IoTag tag{tenant_, AppRequest::kPut, InternalOp::kCompact, {}};
  const SimTime compact_start = loop_.Now();
  scheduler_.tracker().RecordTrigger(tenant_, AppRequest::kPut,
                                     InternalOp::kCompact);
  if (plan.inputs.empty()) {
    scheduler_.tracker().RecordInternalOpDone(tenant_, InternalOp::kCompact);
    co_return Status::Ok();
  }

  // Trace: the compaction span parents under the first input table's
  // lineage (the FLUSH/COMPACT that built it), links the other tables'
  // lineage spans plus a sample of the app-request origins riding them —
  // the fan-in edge set that lets a viewer walk COMPACT device IO back to
  // the PUTs whose bytes it rewrites.
  obs::SpanCollector* spans = scheduler_.spans();
  obs::SpanLinkSet fan_in;
  obs::SpanLinkSet origins;
  TraceContext compact_parent;
  if (spans != nullptr) {
    for (const TableRef& t : plan.inputs) {
      if (!compact_parent.valid()) {
        compact_parent = t->lineage;
      } else {
        fan_in.Add(t->lineage);
      }
      origins.Merge(t->origin_links);
    }
    tag.ctx = compact_parent.valid() ? spans->MintChild(compact_parent)
                                     : spans->MintAlways();
  }

  // Merge: read every input (sequential COMPACT reads); the newest version
  // of each user key wins.
  std::vector<MemTable::Entry> merged;
  auto collect = [&merged](const Record& rec) {
    merged.push_back(MemTable::Entry{std::string(rec.key),
                                     std::string(rec.value), rec.seq,
                                     rec.type, {}});
  };
  for (const TableRef& t : plan.inputs) {
    Status s = co_await t->reader->ScanAll(tag, collect);
    if (dead_) {
      co_return Status::Unavailable("db killed");
    }
    if (!s.ok()) {
      scheduler_.tracker().RecordInternalOpDone(tenant_, InternalOp::kCompact);
      co_return s;
    }
  }
  MergeNewest(&merged, plan.drop_tombstones);

  // Write outputs split at the plan's output size.
  std::vector<TableRef> outputs;
  size_t begin = 0;
  uint64_t bytes = 0;
  for (size_t i = 0; i <= merged.size(); ++i) {
    const bool flush_now =
        i == merged.size() ? i > begin
                           : bytes >= plan.max_output_bytes && i > begin;
    if (flush_now) {
      auto built = co_await BuildTable(merged, begin, i, tag);
      if (dead_) {
        co_return Status::Unavailable("db killed");  // outputs dtor-reclaimed
      }
      if (!built.ok()) {
        scheduler_.tracker().RecordInternalOpDone(tenant_,
                                                  InternalOp::kCompact);
        co_return built.status();
      }
      (*built)->lineage = tag.ctx;
      (*built)->origin_links = origins;
      outputs.push_back(*built);
      begin = i;
      bytes = 0;
    }
    if (i < merged.size()) {
      bytes += merged[i].key.size() + merged[i].value.size() + 17;
    }
  }

  Install(plan.inputs, outputs, plan.out_level, plan.front_insert);
  ++compactions_;
  for (const TableRef& t : plan.inputs) {
    compact_bytes_read_ += t->size_bytes;
  }
  uint64_t output_bytes = 0;
  for (const TableRef& t : outputs) {
    output_bytes += t->size_bytes;
  }
  compact_bytes_written_ += output_bytes;
  compact_ns_ += static_cast<uint64_t>(loop_.Now() - compact_start);
  fan_in.Merge(origins);
  RecordBackgroundSpan(InternalOp::kCompact, tag.ctx, compact_parent.span_id,
                       compact_start, output_bytes, fan_in);
  scheduler_.tracker().RecordInternalOpDone(tenant_, InternalOp::kCompact);
  stall_cv_.NotifyAll();  // L0 / tier-0 pressure may have cleared
  co_return Status::Ok();
}

void LsmDb::Install(const std::vector<TableRef>& inputs,
                    const std::vector<TableRef>& outputs, int level,
                    bool front_insert) {
  // Edits the *latest* version: flushes may have front-inserted newer L0
  // files while a compaction ran; they are preserved.
  auto next = std::make_shared<Version>(*current_);
  auto is_input = [&inputs](const TableRef& t) {
    return std::find(inputs.begin(), inputs.end(), t) != inputs.end();
  };
  for (std::vector<TableRef>& files : next->levels) {
    files.erase(std::remove_if(files.begin(), files.end(), is_input),
                files.end());
  }
  std::vector<TableRef>& files = next->levels[level];
  if (front_insert) {
    files.insert(files.begin(), outputs.begin(), outputs.end());
  } else {
    files.insert(files.end(), outputs.begin(), outputs.end());
    std::sort(files.begin(), files.end(),
              [](const TableRef& a, const TableRef& b) {
                return a->smallest < b->smallest;
              });
  }
  current_ = std::move(next);
}

void LsmDb::RecordBackgroundSpan(InternalOp op, TraceContext ctx,
                                 uint64_t parent_span, SimTime start,
                                 uint64_t bytes,
                                 const obs::SpanLinkSet& links) {
  obs::SpanCollector* spans = scheduler_.spans();
  if (spans == nullptr) {
    return;
  }
  obs::SpanRecord rec;
  rec.trace_id = ctx.trace_id;
  rec.span_id = ctx.span_id;
  rec.parent_span = parent_span;
  rec.kind = op == InternalOp::kFlush ? obs::SpanKind::kFlush
                                      : obs::SpanKind::kCompact;
  rec.app = static_cast<uint8_t>(AppRequest::kPut);
  rec.internal = static_cast<uint8_t>(op);
  rec.is_write = 1;
  rec.tenant = tenant_;
  rec.start_ns = start;
  rec.end_ns = loop_.Now();
  rec.bytes = bytes;
  rec.links = links;
  spans->Record(rec);
}

sim::Task<void> LsmDb::WaitIdle() {
  while (!dead_ && (flush_running_ || compaction_running_ || imm_ != nullptr)) {
    co_await sim::SleepFor(loop_, 10 * kMillisecond);
  }
}

void LsmDb::Kill() {
  if (dead_) {
    return;
  }
  dead_ = true;
  // Wake stalled writers so they observe the crash and unwind.
  stall_cv_.NotifyAll();
}

sim::Task<Status> LsmDb::ScanLive(
    const iosched::IoTag& tag,
    const std::function<void(std::string_view key, std::string_view value)>&
        fn) {
  const OpGuard guard(this);
  if (dead_) {
    co_return Status::Unavailable("db killed");
  }
  const SequenceNumber snapshot = seq_;
  // Pin the version and the memtables' contents before any suspension: the
  // merge below must see one consistent cut of the tree.
  const VersionRef base = current_;
  std::vector<MemTable::Entry> entries = PinMemtables("", "", snapshot);
  auto collect = [&entries, snapshot](const Record& rec) {
    if (rec.seq <= snapshot) {
      entries.push_back(MemTable::Entry{std::string(rec.key),
                                        std::string(rec.value), rec.seq,
                                        rec.type, {}});
    }
  };
  for (const std::vector<TableRef>& level : base->levels) {
    for (const TableRef& t : level) {
      Status s = co_await t->reader->ScanAll(tag, collect);
      if (dead_) {
        co_return Status::Unavailable("db killed");
      }
      if (!s.ok()) {
        co_return s;
      }
    }
  }
  MergeNewest(&entries, /*drop_tombstones=*/true);  // dead keys are not live
  for (const MemTable::Entry& e : entries) {
    fn(e.key, e.value);
  }
  co_return Status::Ok();
}

LsmStats LsmDb::stats() const {
  LsmStats s;
  s.puts = puts_;
  s.gets = gets_;
  s.scans = scans_;
  s.scan_keys = scan_keys_;
  s.scan_bytes = scan_bytes_;
  s.flushes = flushes_;
  s.compactions = compactions_;
  s.tables_probed = tables_probed_;
  s.flush_bytes = flush_bytes_;
  s.flush_ns = flush_ns_;
  s.compact_bytes_read = compact_bytes_read_;
  s.compact_bytes_written = compact_bytes_written_;
  s.compact_ns = compact_ns_;
  s.stalls = stalls_;
  s.stall_ns = stall_ns_;
  s.wal_appends = wal_counters_.appends;
  s.wal_batches = wal_counters_.batches;
  s.wal_batched_records = wal_counters_.batched_records;
  s.wal_max_batch_records = wal_counters_.max_batch_records;
  s.recovered_wal_files = recovered_wal_files_;
  s.recovered_records = recovered_records_;
  s.recovered_bytes = recovered_bytes_;
  s.bloom_probes = read_counters_.bloom_probes;
  s.bloom_negatives = read_counters_.bloom_negatives;
  s.bloom_false_positives = read_counters_.bloom_false_positives;
  s.index_block_reads = read_counters_.index_block_reads;
  s.filter_block_reads = read_counters_.filter_block_reads;
  s.data_block_reads = read_counters_.data_block_reads;
  s.data_cache_hits = read_counters_.data_cache_hits;
  constexpr int kIdx = static_cast<int>(BlockCache::Kind::kIndex);
  constexpr int kFlt = static_cast<int>(BlockCache::Kind::kFilter);
  constexpr int kDat = static_cast<int>(BlockCache::Kind::kData);
  const BlockCache::TenantCounters tc = cache_->CountersOf(tenant_);
  s.bcache_index_hits = tc.hits[kIdx];
  s.bcache_index_misses = tc.misses[kIdx];
  s.bcache_filter_hits = tc.hits[kFlt];
  s.bcache_filter_misses = tc.misses[kFlt];
  s.bcache_data_hits = tc.hits[kDat];
  s.bcache_data_misses = tc.misses[kDat];
  s.bcache_evictions = tc.evictions;
  s.bcache_resident_bytes = cache_->resident_bytes();
  s.bcache_capacity_bytes = cache_->capacity_bytes();
  for (const auto& files : current_->levels) {
    s.files_per_level.push_back(static_cast<int>(files.size()));
  }
  return s;
}

std::string LsmDb::DebugCheckInvariants() const {
  if (options_.compaction_policy == CompactionPolicy::kSizeTiered) {
    // Every tier is a stack of whole runs, newest (highest number) first.
    for (int tier = 0; tier < options_.num_levels; ++tier) {
      const auto& runs = current_->levels[tier];
      for (size_t i = 1; i < runs.size(); ++i) {
        if (runs[i - 1]->number < runs[i]->number) {
          return "tier " + std::to_string(tier) +
                 " not newest-first at index " + std::to_string(i);
        }
      }
    }
    return "";
  }
  const auto& l0 = current_->levels[0];
  for (size_t i = 1; i < l0.size(); ++i) {
    if (l0[i - 1]->number < l0[i]->number) {
      return "L0 not newest-first at index " + std::to_string(i);
    }
  }
  for (int level = 1; level < options_.num_levels; ++level) {
    const auto& files = current_->levels[level];
    for (size_t i = 1; i < files.size(); ++i) {
      if (files[i - 1]->largest >= files[i]->smallest) {
        return "L" + std::to_string(level) + " overlap: [" +
               files[i - 1]->smallest + "," + files[i - 1]->largest +
               "] vs [" + files[i]->smallest + "," + files[i]->largest + "]";
      }
    }
  }
  return "";
}

int LsmDb::NumFilesAtLevel(int level) const {
  assert(level >= 0 && level < options_.num_levels);
  return static_cast<int>(current_->levels[level].size());
}

}  // namespace libra::lsm

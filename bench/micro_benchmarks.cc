// Microbenchmarks (google-benchmark): per-operation cost of the hot paths.
// The DRR scheduling decision is O(1) (the paper's argument against
// virtual-time fair queuing's O(log n)); cost-model evaluation, skiplist
// and event loop costs bound the simulator's wall-clock throughput.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/fs/sim_fs.h"
#include "src/iosched/cost_model.h"
#include "src/iosched/scheduler.h"
#include "src/lsm/block_cache.h"
#include "src/lsm/db.h"
#include "src/lsm/format.h"
#include "src/lsm/memtable.h"
#include "src/lsm/wal.h"
#include "src/sim/event_loop.h"
#include "src/sim/multi_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/device.h"
#include "src/ssd/profile.h"

namespace libra {
namespace {

ssd::CalibrationTable MicroTable() {
  ssd::CalibrationTable t;
  t.sizes_kb = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  t.rand_read_iops = {38000, 36000, 33000, 28000, 16500, 8200, 4100, 2050, 1025};
  t.rand_write_iops = {13500, 13500, 13400, 10400, 8100, 4000, 2000, 1000, 610};
  t.seq_read_iops = t.rand_read_iops;
  t.seq_write_iops = t.rand_write_iops;
  return t;
}

void BM_EventLoopScheduleDispatch(benchmark::State& state) {
  sim::EventLoop loop;
  int sink = 0;
  for (auto _ : state) {
    loop.ScheduleAfter(10, [&sink] { ++sink; });
    loop.RunOne();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventLoopScheduleDispatch);

void BM_CostModelExact(benchmark::State& state) {
  iosched::ExactCostModel model(MicroTable());
  Rng rng(1);
  for (auto _ : state) {
    const uint32_t size = static_cast<uint32_t>(1024 + rng.NextU64(255 * 1024));
    benchmark::DoNotOptimize(model.Cost(ssd::IoType::kRead, size));
  }
}
BENCHMARK(BM_CostModelExact);

void BM_CostModelFitted(benchmark::State& state) {
  iosched::FittedCostModel model(MicroTable());
  Rng rng(1);
  for (auto _ : state) {
    const uint32_t size = static_cast<uint32_t>(1024 + rng.NextU64(255 * 1024));
    benchmark::DoNotOptimize(model.Cost(ssd::IoType::kWrite, size));
  }
}
BENCHMARK(BM_CostModelFitted);

// One full scheduler round trip per iteration: submit + dispatch + device
// completion — the paper's "constant time" scheduling claim. Tenant count
// is the benchmark argument; per-op cost should stay ~flat.
void BM_SchedulerRoundTrip(benchmark::State& state) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(256 * kMiB);
  iosched::IoScheduler sched(loop, device,
                             std::make_unique<iosched::ExactCostModel>(MicroTable()));
  const int tenants = static_cast<int>(state.range(0));
  for (int t = 0; t < tenants; ++t) {
    sched.SetAllocation(t, 1000.0);
  }
  Rng rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    const iosched::TenantId t = static_cast<iosched::TenantId>(i++ % tenants);
    sim::Detach([](iosched::IoScheduler& s, iosched::TenantId id,
                   uint64_t off) -> sim::Task<void> {
      co_await s.Read(
          {id, iosched::AppRequest::kGet, iosched::InternalOp::kNone, {}}, off,
          4096);
    }(sched, t, rng.NextU64(50000) * 4096));
    loop.Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRoundTrip)->Arg(1)->Arg(8)->Arg(64);

void BM_SkiplistInsert(benchmark::State& state) {
  lsm::MemTable mt;
  Rng rng(5);
  lsm::SequenceNumber seq = 0;
  char key[32];
  for (auto _ : state) {
    std::snprintf(key, sizeof(key), "key%012llu",
                  static_cast<unsigned long long>(rng.NextU64(1u << 20)));
    mt.Put(key, ++seq, "value");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkiplistInsert);

void BM_MemtableGet(benchmark::State& state) {
  lsm::MemTable mt;
  Rng rng(5);
  char key[32];
  for (int i = 0; i < 100000; ++i) {
    std::snprintf(key, sizeof(key), "key%012d", i);
    mt.Put(key, static_cast<lsm::SequenceNumber>(i + 1), "value");
  }
  for (auto _ : state) {
    std::snprintf(key, sizeof(key), "key%012llu",
                  static_cast<unsigned long long>(rng.NextU64(100000)));
    benchmark::DoNotOptimize(mt.Get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemtableGet);

// One bloom probe per iteration against a filter block sized like a flushed
// SSTable's (4K keys at 10 bits/key, ~5KiB). Half the probes are keys in
// the filter, half are misses — the mix the filtered GET path sees on the
// read-miss traffic the filters exist for. This is the per-GET CPU cost
// added to every table visit, so it must stay tens of nanoseconds.
void BM_BloomProbe(benchmark::State& state) {
  constexpr int kKeys = 4096;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  char buf[32];
  for (int i = 0; i < kKeys; ++i) {
    std::snprintf(buf, sizeof(buf), "key%012d", i);
    keys.emplace_back(buf);
  }
  std::string filter;
  lsm::BloomFilterBuild(keys, 10, &filter);
  Rng rng(13);
  uint64_t maybe = 0;
  for (auto _ : state) {
    const uint64_t i = rng.NextU64(2 * kKeys);
    std::snprintf(buf, sizeof(buf), "key%012llu",
                  static_cast<unsigned long long>(i));
    maybe += lsm::BloomFilterMayContain(filter, buf) ? 1 : 0;
  }
  benchmark::DoNotOptimize(maybe);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

// One shared-block-cache hit per iteration: the map probe + LRU splice that
// replaces a device read on the cached GET path. The cache holds a working
// set of data blocks across several tenants/tables, all resident (no
// evictions inside the timed loop) — this is the pure hit cost.
void BM_BlockCacheGet(benchmark::State& state) {
  constexpr int kTenants = 4;
  constexpr int kTables = 16;
  constexpr int kBlocks = 8;
  constexpr uint64_t kBlockBytes = 4096;
  // Budget = the working set exactly: data blocks are cached, none evicted.
  lsm::BlockCache cache(/*capacity_bytes=*/kTenants * kTables * kBlocks *
                        kBlockBytes);
  for (int t = 1; t <= kTenants; ++t) {
    for (int f = 0; f < kTables; ++f) {
      for (int b = 0; b < kBlocks; ++b) {
        auto block = std::make_shared<lsm::CachedBlock>();
        block->bytes = std::string(kBlockBytes, 'd');
        cache.Insert(static_cast<iosched::TenantId>(t),
                     static_cast<uint64_t>(f), lsm::BlockCache::Kind::kData,
                     static_cast<uint64_t>(b) * kBlockBytes, std::move(block),
                     kBlockBytes);
      }
    }
  }
  Rng rng(17);
  uint64_t hits = 0;
  for (auto _ : state) {
    const auto tenant =
        static_cast<iosched::TenantId>(1 + rng.NextU64(kTenants));
    const uint64_t table = rng.NextU64(kTables);
    const uint64_t offset = rng.NextU64(kBlocks) * kBlockBytes;
    hits += cache.Get(tenant, table, lsm::BlockCache::Kind::kData, offset) !=
            nullptr;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockCacheGet);

void BM_Crc32_4K(benchmark::State& state) {
  const std::string data(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsm::Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Crc32_4K);

void BM_DeviceSubmitComplete(benchmark::State& state) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(256 * kMiB);
  Rng rng(7);
  for (auto _ : state) {
    device.Submit({ssd::IoType::kWrite, rng.NextU64(50000) * 4096, 4096},
                  [] {});
    loop.Run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceSubmitComplete);

// One group-commit cycle per iteration: `qd` concurrent WAL appends
// submitted together, drained to completion. qd=1 is the degenerate
// no-batching case; 8 and 32 measure the leader/follower machinery under
// the queue depths the demos use. The simulated-time IOP savings are
// covered by tests; this tracks the wall-clock cost of the batching code
// itself (queueing, manifest build, per-record completion fan-out).
void BM_WalGroupCommit(benchmark::State& state) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(256 * kMiB);
  iosched::IoScheduler sched(
      loop, device, std::make_unique<iosched::ExactCostModel>(MicroTable()));
  sched.SetAllocation(1, 100000.0);
  fs::SimFs fs(sched, device);
  lsm::WalOptions wopt;
  wopt.group_commit = true;
  const int qd = static_cast<int>(state.range(0));
  const iosched::IoTag tag{1, iosched::AppRequest::kPut,
                           iosched::InternalOp::kNone, {}};
  std::unique_ptr<lsm::WriteAheadLog> wal;
  uint64_t wal_number = 0;
  uint64_t records = 0;
  auto roll_wal = [&] {
    if (wal != nullptr) {
      (void)wal->Remove();
    }
    wal = std::make_unique<lsm::WriteAheadLog>(
        fs, "bench_wal_" + std::to_string(++wal_number), wopt);
    if (!wal->Open().ok()) {
      state.SkipWithError("wal open failed");
    }
  };
  roll_wal();
  lsm::SequenceNumber seq = 0;
  for (auto _ : state) {
    for (int i = 0; i < qd; ++i) {
      sim::Detach([](lsm::WriteAheadLog* w, iosched::IoTag t,
                     lsm::SequenceNumber s) -> sim::Task<void> {
        co_await w->Append(t, "key", s, lsm::ValueType::kPut, "value");
      }(wal.get(), tag, ++seq));
    }
    loop.Run();
    records += static_cast<uint64_t>(qd);
    if (records % 16384 == 0) {
      roll_wal();  // keep the backing SimFs file bounded
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * qd);
}
BENCHMARK(BM_WalGroupCommit)->Arg(1)->Arg(8)->Arg(32);

// One bounded range scan per iteration through the LSM k-way merge path:
// the window overlaps the memtable and several flushed tables, so every
// scan exercises cursor seeding, heap merging, newest-version-wins dedup,
// and tombstone shadowing (every 7th key is deleted). Arg = scan limit in
// keys; items = live entries returned.
void BM_ScanMerge(benchmark::State& state) {
  sim::EventLoop loop;
  ssd::SsdDevice device(loop, ssd::Intel320Profile());
  device.Prefill(256 * kMiB);
  iosched::IoScheduler sched(
      loop, device, std::make_unique<iosched::ExactCostModel>(MicroTable()));
  sched.SetAllocation(1, 100000.0);
  fs::SimFs fs(sched, device);
  lsm::LsmOptions opt;
  opt.write_buffer_bytes = 64 * 1024;  // many small tables in the merge
  lsm::LsmDb db(loop, fs, sched, 1, "bench_scan", opt);
  if (!db.Open().ok()) {
    state.SkipWithError("lsm open failed");
    return;
  }
  sim::Detach([](lsm::LsmDb* d) -> sim::Task<void> {
    char k[32];
    for (int i = 0; i < 4096; ++i) {
      std::snprintf(k, sizeof(k), "key%06d", i);
      co_await d->Put(k, std::string(128, 'v'));
      if (i % 7 == 0) {
        co_await d->Delete(k);
      }
    }
    co_await d->WaitIdle();
  }(&db));
  loop.Run();
  const int span = static_cast<int>(state.range(0));
  Rng rng(11);
  char key[32];
  uint64_t returned = 0;
  for (auto _ : state) {
    const int start = static_cast<int>(rng.NextU64(4096 - span));
    std::snprintf(key, sizeof(key), "key%06d", start);
    sim::Detach([](lsm::LsmDb* d, std::string s, size_t lim,
                   uint64_t* out) -> sim::Task<void> {
      const lsm::LsmDb::ScanResult r = co_await d->Scan(s, "", lim);
      *out += r.entries.size();
    }(&db, key, static_cast<size_t>(span), &returned));
    loop.Run();
  }
  benchmark::DoNotOptimize(returned);
  state.SetItemsProcessed(static_cast<int64_t>(returned));
}
BENCHMARK(BM_ScanMerge)->Arg(16)->Arg(128);

// One 16-key MultiGet per iteration through the cluster routing layer,
// keys resident in memtables (zero simulated IO time): measures the
// per-request fan-out machinery. Arg(0) = per-key routing (default),
// Arg(1) = slot-grouped batching.
void BM_MultiGetFanout(benchmark::State& state) {
  sim::EventLoop loop;
  cluster::ClusterOptions options;
  options.num_nodes = 2;
  options.node_options.calibration = MicroTable();
  options.node_options.prefill_bytes = 64 * kMiB;
  options.batch_multiget = state.range(0) != 0;
  cluster::Cluster cl(loop, options);
  auto admitted = cl.AddTenant(1, cluster::GlobalReservation{});
  if (!admitted.ok()) {
    state.SkipWithError("AddTenant failed");
    return;
  }
  cluster::TenantHandle tenant = admitted.value();
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  sim::Detach([](cluster::TenantHandle h,
                 std::vector<std::string> ks) -> sim::Task<void> {
    for (const std::string& k : ks) {
      co_await h.Put(k, "value");
    }
  }(tenant, keys));
  loop.Run();
  for (auto _ : state) {
    sim::Detach([](cluster::TenantHandle h,
                   const std::vector<std::string>* ks) -> sim::Task<void> {
      benchmark::DoNotOptimize(co_await h.MultiGet(*ks));
    }(tenant, &keys));
    loop.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_MultiGetFanout)->Arg(0)->Arg(1);

// One epoch of the parallel engine: every loop sends one message around a
// ring, then a single barrier — outbox exchange, (when, sender, seq) sort,
// injection, and the epoch step — delivers them all. Arg0 = loop count,
// Arg1 = worker threads (1 = no pool; >1 adds the cv hand-off, which is
// the per-epoch overhead a multi-core host must amortize against the
// per-loop event work). Items = messages exchanged.
void BM_EpochBarrierExchange(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr SimDuration kLookahead = 1000;
  sim::MultiLoop ml(n, {threads, kLookahead});
  uint64_t delivered = 0;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      ml.Send(i, (i + 1) % n, kLookahead, [&delivered] { ++delivered; });
    }
    ml.Run();  // one barrier: exchange + advance + step every loop
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EpochBarrierExchange)
    ->Args({2, 1})
    ->Args({8, 1})
    ->Args({64, 1})
    ->Args({8, 4});

}  // namespace
}  // namespace libra

BENCHMARK_MAIN();

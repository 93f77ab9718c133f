// The three benchmark workloads and the harness they share.
//
//   provisioned_mix  Fig. 11 shape: 1 node, 8 tenants (read-heavy, mixed,
//                    write-heavy), reservations sized to the capacity
//                    floor, closed loop. Loads the LSM write path.
//   tenant_scale     thousands of tenants on 16 nodes at RF 2, admission
//                    on, parallel engine, open-loop 256 B PUT + readback.
//                    Loads setup, routing, fan-out and per-tenant state.
//   read_scan        4 nodes, 8 tenants, bloom filters + a shared block
//                    cache smaller than the live data, Zipf GETs (25% to
//                    absent keys), 10% SCANs, 5% PUTs, closed loop. Loads
//                    the read path.
//
// Every request is timed on the virtual clock by the client and every
// result is checked against a model of what was written.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/driver/bench.h"
#include "perfbench/driver/layers.h"
#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/iosched/io_tag.h"
#include "src/kv/storage_node.h"
#include "src/sim/sync.h"
#include "src/ssd/calibration.h"
#include "src/ssd/profile.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using libra::kKiB;
using libra::kMicrosecond;
using libra::kMiB;
using libra::kMillisecond;
using libra::kSecond;
using libra::Result;
using libra::Rng;
using libra::Status;
using libra::StatusCode;
using libra::cluster::Cluster;
using libra::cluster::ClusterOptions;
using libra::cluster::GlobalReservation;
using libra::cluster::ScanEntries;
using libra::cluster::TenantHandle;
using libra::iosched::AppRequest;
using libra::iosched::TenantId;
namespace sim = libra::sim;

constexpr AppRequest kAppOf[kNumCls] = {AppRequest::kGet, AppRequest::kPut,
                                        AppRequest::kScan};

// ---------------------------------------------------------------------------
// Expected values.

// True iff `got` is exactly workload::MakeValue(seed, size): the seed
// repeated with '|' separators, truncated to `size` bytes.
bool MatchesValue(std::string_view got, std::string_view seed, uint64_t size) {
  if (got.size() != size) {
    return false;
  }
  const size_t period = seed.size() + 1;
  for (size_t off = 0; off < size; off += period) {
    const size_t n = std::min<size_t>(seed.size(), size - off);
    if (got.substr(off, n) != seed.substr(0, n)) {
      return false;
    }
    if (off + n < size && got[off + n] != '|') {
      return false;
    }
  }
  return true;
}

// Stable objects: "g" + index, written once by the preload and never
// overwritten. key + "#" sorts between two live keys and is never written
// (an in-range absent key).
std::string StaticKey(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "g%07" PRIu64, i);
  return buf;
}
// Worker-owned overwrite keys; "p" sorts after every static key.
std::string PutKey(int worker, uint64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%02d_%05" PRIu64, worker, k);
  return buf;
}
// Open-loop keys, one per PUT.
std::string OpenKey(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%06" PRIu64, seq);
  return buf;
}
// Value seeds name the tenant, so a cross-tenant read would not match.
std::string ValueSeed(TenantId t, const std::string& key, uint32_t version) {
  return "t" + std::to_string(t) + ":" + key + "#v" + std::to_string(version);
}

// ---------------------------------------------------------------------------
// Client state.

// Request mix of one closed-loop tenant.
struct Mix {
  double get_fraction = 0.5;   // of all requests
  double scan_fraction = 0.0;  // of all requests (rest: PUT)
  double absent_fraction = 0.0;  // of GETs: in-range never-written keys
  double zipf_theta = 0.0;       // GET popularity over objects; 0 = uniform
  double get_kb = 4.0;           // static objects: log-normal mean
  double put_kb = 4.0;           // PUT values: log-normal mean
  double sigma_kb = 1.0;
  uint64_t static_bytes = 1 * kMiB;  // preloaded live data per tenant
  int put_keys_per_worker = 16;
  int scan_limit = 16;
  int scan_span = 32;  // static objects in [start, end)
};

struct Tenant {
  int index = 0;
  int group = 0;  // tenants of one group run the same mix
  TenantId id = 0;
  TenantHandle h;
  Mix mix;
  GlobalReservation reservation;
  std::vector<uint32_t> sizes;  // static object sizes
  std::unique_ptr<libra::ZipfGenerator> zipf;
  uint64_t scramble = 1;  // rank -> object index multiplier (coprime)
  // Acked PUT model: [worker][key] -> (version, size); version 0 = unwritten.
  std::vector<std::vector<uint32_t>> put_version;
  std::vector<std::vector<uint32_t>> put_size;
  // Open loop: keys written so far ("k" + seq), all 256 B.
  uint64_t open_keys = 0;
};

struct Shared {
  sim::EventLoop* loop = nullptr;
  ClientLog* log = nullptr;
  SimTime start = 0;  // clients begin
  SimTime stop = 0;   // no request is issued (or falls due) at/after stop
  bool corrupt_pending = false;
  uint32_t open_value_bytes = 256;
  double open_rate = 0.0;  // PUTs per virtual second per tenant
};

// Outcome of reading a key that must hold MakeValue(seed, size). The test
// hook corrupts the first expectation checked.
Outcome CheckValue(Shared* sh, const Result<std::string>& r, std::string seed,
                   uint64_t size) {
  if (!r.ok()) {
    return r.status().code() == StatusCode::kNotFound ? Outcome::kWrong
                                                      : Outcome::kFailed;
  }
  if (sh->corrupt_pending) {
    sh->corrupt_pending = false;
    seed.back() ^= 1;
  }
  return MatchesValue(r.value(), seed, size) ? Outcome::kOk : Outcome::kWrong;
}

// Outcome of reading a key that was never written: NotFound.
Outcome CheckAbsent(const Result<std::string>& r) {
  if (r.ok()) {
    return Outcome::kWrong;
  }
  return r.status().code() == StatusCode::kNotFound ? Outcome::kOk
                                                    : Outcome::kFailed;
}

// Checks a scan of static objects [i, j) with `limit`: sorted, in range,
// within the limit, and exactly the expected live entries.
Outcome CheckScan(const Tenant& ts, uint64_t i, uint64_t j, size_t limit,
                  const std::string& start, const std::string& end,
                  const Result<ScanEntries>& r, uint64_t* bytes) {
  if (!r.ok()) {
    return Outcome::kFailed;
  }
  const ScanEntries& e = r.value();
  if (e.size() > limit) {
    return Outcome::kWrong;
  }
  for (size_t k = 0; k < e.size(); ++k) {
    if (e[k].first < start || e[k].first >= end ||
        (k > 0 && !(e[k - 1].first < e[k].first))) {
      return Outcome::kWrong;
    }
    *bytes += e[k].first.size() + e[k].second.size();
  }
  const uint64_t want = std::min<uint64_t>(j - i, limit);
  if (e.size() != want) {
    return Outcome::kWrong;
  }
  for (uint64_t k = 0; k < want; ++k) {
    const std::string key = StaticKey(i + k);
    if (e[k].first != key ||
        !MatchesValue(e[k].second, ValueSeed(ts.id, key, 0), ts.sizes[i + k])) {
      return Outcome::kWrong;
    }
  }
  return Outcome::kOk;
}

uint64_t PickObject(Tenant* ts, Rng& rng) {
  const uint64_t n = ts->sizes.size();
  if (ts->zipf == nullptr) {
    return rng.NextU64(n);
  }
  return (ts->zipf->Sample(rng) % n) * ts->scramble % n;
}

// Coroutine parameters are by value / raw pointers: TaskGroup-spawned
// frames outlive the spawning scope's locals.
sim::Task<void> Preload(Shared* sh, Tenant* ts) {
  for (uint64_t i = 0; i < ts->sizes.size(); ++i) {
    const std::string key = StaticKey(i);
    const SimTime begin = sh->loop->Now();
    const Status s = co_await ts->h.Put(
        key, libra::workload::MakeValue(ValueSeed(ts->id, key, 0),
                                        ts->sizes[i]));
    sh->log->Record(ts->index, kPut, begin, sh->loop->Now(), ts->sizes[i],
                    s.ok() ? Outcome::kOk : Outcome::kFailed);
  }
}

sim::Task<void> ClosedWorker(Shared* sh, Tenant* ts, int worker,
                             uint64_t seed) {
  Rng rng(seed);
  const Mix& mix = ts->mix;
  const libra::LogNormalSize put_dist(mix.put_kb * 1024.0,
                                      mix.sigma_kb * 1024.0, 64, 1 * kMiB);
  std::vector<uint32_t>& version = ts->put_version[worker];
  std::vector<uint32_t>& vsize = ts->put_size[worker];
  const uint64_t n = ts->sizes.size();
  while (sh->loop->Now() < sh->stop) {
    const SimTime begin = sh->loop->Now();
    const double u = rng.NextDouble();
    if (u < mix.scan_fraction) {
      const uint64_t i = rng.NextU64(n);
      const uint64_t j = std::min<uint64_t>(n, i + mix.scan_span);
      const std::string start = StaticKey(i);
      const std::string end = StaticKey(j);
      const size_t limit = static_cast<size_t>(mix.scan_limit);
      const Result<ScanEntries> r = co_await ts->h.Scan(start, end, limit);
      uint64_t bytes = 0;
      const Outcome o = CheckScan(*ts, i, j, limit, start, end, r, &bytes);
      sh->log->Record(ts->index, kScan, begin, sh->loop->Now(), bytes, o);
    } else if (u < mix.scan_fraction + mix.get_fraction) {
      const uint64_t i = PickObject(ts, rng);
      const bool absent =
          mix.absent_fraction > 0.0 && rng.Bernoulli(mix.absent_fraction);
      const std::string key = absent ? StaticKey(i) + "#" : StaticKey(i);
      const Result<std::string> r = co_await ts->h.Get(key);
      const Outcome o =
          absent ? CheckAbsent(r)
                 : CheckValue(sh, r, ValueSeed(ts->id, key, 0), ts->sizes[i]);
      sh->log->Record(ts->index, kGet, begin, sh->loop->Now(),
                      absent ? 0 : ts->sizes[i], o);
    } else {
      const uint64_t k = rng.NextU64(version.size());
      const uint32_t size = static_cast<uint32_t>(put_dist.Sample(rng));
      const uint32_t v = version[k] + 1;
      const std::string key = PutKey(worker, k);
      const Status s = co_await ts->h.Put(
          key, libra::workload::MakeValue(ValueSeed(ts->id, key, v), size));
      if (s.ok()) {
        version[k] = v;
        vsize[k] = size;
      }
      sh->log->Record(ts->index, kPut, begin, sh->loop->Now(), size,
                      s.ok() ? Outcome::kOk : Outcome::kFailed);
    }
  }
}

// Open loop: PUTs fall due on a Poisson schedule; each acked PUT is read
// back at once. Latency counts from the due time, so a client that falls
// behind its schedule shows it.
sim::Task<void> OpenTenant(Shared* sh, Tenant* ts, uint64_t seed) {
  Rng rng(seed);
  const uint32_t size = sh->open_value_bytes;
  auto gap = [&rng, sh] {
    const double u = rng.NextDouble();
    return static_cast<SimDuration>(-std::log(1.0 - u) / sh->open_rate *
                                    static_cast<double>(kSecond)) +
           1;
  };
  SimTime due = sh->start + gap();
  while (due < sh->stop) {
    if (sh->loop->Now() < due) {
      co_await sim::SleepUntil(*sh->loop, due);
    }
    sh->log->RecordLag(sh->loop->Now() - due);
    const std::string key = OpenKey(ts->open_keys);
    const std::string vseed = ValueSeed(ts->id, key, 1);
    sh->log->RecordDue(ts->index, kPut, due, size);
    const Status s =
        co_await ts->h.Put(key, libra::workload::MakeValue(vseed, size));
    sh->log->Record(ts->index, kPut, due, sh->loop->Now(), size,
                    s.ok() ? Outcome::kOk : Outcome::kFailed);
    if (s.ok()) {
      ++ts->open_keys;
      // The readback belongs to the scheduled operation: it is due when
      // the PUT was, so its latency includes the write it confirms (a
      // memtable GET alone is two fixed RPC legs in this simulator).
      const SimTime begin = due;
      sh->log->RecordDue(ts->index, kGet, begin, size);
      const Result<std::string> r = co_await ts->h.Get(key);
      sh->log->Record(ts->index, kGet, begin, sh->loop->Now(), size,
                      CheckValue(sh, r, vseed, size));
    }
    due += gap();
  }
}

// Post-run readback: every acked overwrite key at its last version, every
// 16th static object, and each open-loop tenant's first and last key.
sim::Task<void> VerifyTenant(Shared* sh, Tenant* ts) {
  auto check = [sh, ts](const Result<std::string>& r, std::string seed,
                        uint64_t size, SimTime begin) {
    sh->log->Record(ts->index, kGet, begin, sh->loop->Now(), size,
                    CheckValue(sh, r, std::move(seed), size));
  };
  for (size_t w = 0; w < ts->put_version.size(); ++w) {
    for (size_t k = 0; k < ts->put_version[w].size(); ++k) {
      const uint32_t v = ts->put_version[w][k];
      if (v == 0) {
        continue;
      }
      const std::string key = PutKey(static_cast<int>(w), k);
      const SimTime begin = sh->loop->Now();
      const Result<std::string> r = co_await ts->h.Get(key);
      check(r, ValueSeed(ts->id, key, v), ts->put_size[w][k], begin);
    }
  }
  for (uint64_t i = 0; i < ts->sizes.size(); i += 16) {
    const std::string key = StaticKey(i);
    const SimTime begin = sh->loop->Now();
    const Result<std::string> r = co_await ts->h.Get(key);
    check(r, ValueSeed(ts->id, key, 0), ts->sizes[i], begin);
  }
  if (ts->open_keys > 0) {
    for (const uint64_t seq : {uint64_t{0}, ts->open_keys - 1}) {
      const std::string key = OpenKey(seq);
      const SimTime begin = sh->loop->Now();
      const Result<std::string> r = co_await ts->h.Get(key);
      check(r, ValueSeed(ts->id, key, 1), sh->open_value_bytes, begin);
    }
  }
}

// ---------------------------------------------------------------------------
// Harness: engine + cluster + timed phases + metric assembly.

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

struct Timeline {
  SimDuration warm = 0;     // clients run, nothing measured
  SimDuration window = 0;   // measured
  SimDuration slice = 0;    // counter snapshot cadence
};

class Harness {
 public:
  Harness(const Options& opt, Report* rep) : opt_(opt), rep_(rep) {}

  // Calibrates the device (the paper's pre-deployment benchmarking step)
  // and returns the prototype node configuration: Intel 320, exact cost
  // model, no object cache, 4 MiB write buffers.
  libra::kv::NodeOptions PrototypeNode() {
    Stopwatch sw;
    libra::kv::NodeOptions node;
    node.device_profile = libra::ssd::Intel320Profile();
    libra::ssd::CalibrationOptions cal;
    cal.warmup = 300 * kMillisecond;
    cal.measure = 1 * kSecond;
    node.calibration = libra::ssd::Calibrate(node.device_profile, cal);
    node.cost_model = "exact";
    node.enable_cache = false;
    node.prefill_bytes = 0;  // the preload populates the FTL
    calibrate_s_ = sw.Seconds();
    return node;
  }

  void Build(ClusterOptions copt, bool parallel) {
    if (opt_.traced) {
      // About 1 in 15 requests traced; the rings (~256k spans in all, tens
      // of MB) are drained at every time slice. The period is odd on
      // purpose: on the serial engine an untraced request mints twice from
      // one counter (cluster, then node), so an even period can phase-lock
      // onto the node's mint and never trace a request from the client.
      copt.node_options.scheduler_options.span_capacity =
          static_cast<size_t>((1 << 18) / copt.num_nodes);
      copt.node_options.scheduler_options.span_sample_every = 15;
    }
    if (parallel) {
      sim::MultiLoopOptions mopt;
      mopt.threads = opt_.sim_threads;
      mopt.lookahead = copt.rpc_latency;
      eng_.multi =
          std::make_unique<sim::MultiLoop>(copt.num_nodes + 1, mopt);
      cl_ = std::make_unique<Cluster>(*eng_.multi, copt);
    } else {
      eng_.serial = std::make_unique<sim::EventLoop>();
      cl_ = std::make_unique<Cluster>(*eng_.serial, copt);
    }
    cl_->SetRpcFaultInjector(&rpcs_);
    sh_.loop = &eng_.client();
  }

  // Admits `n` tenants (ids 1..n), timing each AddTenant call.
  void Admit(std::vector<std::unique_ptr<Tenant>>& tenants) {
    log_ = std::make_unique<ClientLog>(static_cast<int>(tenants.size()));
    sh_.log = log_.get();
    sh_.corrupt_pending = opt_.corrupt_expectation;
    Stopwatch sw;
    add_us_.reserve(tenants.size());
    for (auto& ts : tenants) {
      Stopwatch one;
      Result<TenantHandle> h = cl_->AddTenant(ts->id, ts->reservation);
      add_us_.push_back(one.Seconds() * 1e6);
      if (!h.ok()) {
        std::fprintf(stderr, "AddTenant(%u): %s\n", ts->id,
                     h.status().message().c_str());
        ++admission_failures_;
        continue;
      }
      ts->h = h.value();
    }
    add_tenants_s_ = sw.Seconds();
  }

  void PreloadAll(std::vector<std::unique_ptr<Tenant>>& tenants) {
    Stopwatch sw;
    {
      sim::TaskGroup group(eng_.client());
      for (auto& ts : tenants) {
        if (!ts->sizes.empty()) {
          group.Spawn(Preload(&sh_, ts.get()));
        }
      }
      eng_.Run();
    }
    preload_s_ = sw.Seconds();
  }

  // Runs the clients from now for warm + window, with counter captures at
  // the window edges and every slice. `spawn` starts the client coroutines;
  // `hooks` run quiesced at virtual offsets from the clients' start (the
  // workload's control-plane steps).
  void RunClients(
      const Timeline& tl, const std::function<void(sim::TaskGroup&)>& spawn,
      std::vector<std::pair<SimDuration, std::function<void()>>> hooks = {}) {
    setup_s_ = setup_clock_.Seconds();
    rss_after_setup_mb_ = CurrentRssMb();
    const SimTime t0 = eng_.client().Now();
    sh_.start = t0;
    sh_.stop = t0 + tl.warm + tl.window;
    warm_ = tl.warm;
    log_->SetWindow(t0 + tl.warm, sh_.stop);
    const Depth edge = opt_.traced ? Depth::kFull : Depth::kTotals;
    const Depth mid = opt_.traced ? Depth::kCounters : Depth::kTotals;
    eng_.AtTime(t0 + tl.warm, [this, edge] {
      Stopwatch sw;
      start_ = Capture(*cl_, edge);
      rpcs_start_ = rpcs_.rpcs();
      snapshot_s_ += sw.Seconds();
    });
    eng_.AtTime(sh_.stop, [this, edge] {
      Stopwatch sw;
      end_ = Capture(*cl_, edge);
      rpcs_end_ = rpcs_.rpcs();
      snapshot_s_ += sw.Seconds();
    });
    for (SimTime t = t0 + tl.slice; t <= sh_.stop; t += tl.slice) {
      eng_.AtTime(t, [this, t, t0, mid] {
        Stopwatch sw;
        Slice(t - t0, Capture(*cl_, mid));
        if (opt_.traced) {
          spans_.Drain(*cl_);
        }
        snapshot_s_ += sw.Seconds();
      });
    }
    for (auto& [offset, fn] : hooks) {
      eng_.AtTime(t0 + offset, std::move(fn));
    }
    const uint64_t completed0 = log_->completed();
    const uint64_t epochs0 = eng_.multi ? eng_.multi->epochs() : 0;
    const uint64_t msgs0 = eng_.multi ? eng_.multi->messages_sent() : 0;
    Stopwatch sw;
    cl_->Start();
    {
      sim::TaskGroup group(eng_.client());
      spawn(group);
      events_ += eng_.RunUntil(sh_.stop);
      cl_->Stop();
      events_ += eng_.Run();
    }
    run_s_ = sw.Seconds();
    run_completed_ = log_->completed() - completed0;
    epochs_ = eng_.multi ? eng_.multi->epochs() - epochs0 : 0;
    messages_ = eng_.multi ? eng_.multi->messages_sent() - msgs0 : 0;
    window_s_ = libra::ToSeconds(tl.window);
  }

  void VerifyAll(std::vector<std::unique_ptr<Tenant>>& tenants) {
    Stopwatch sw;
    {
      sim::TaskGroup group(eng_.client());
      for (auto& ts : tenants) {
        group.Spawn(VerifyTenant(&sh_, ts.get()));
      }
      eng_.Run();
    }
    verify_s_ = sw.Seconds();
  }

  // Assembles the report. `live_bytes`: user bytes live at the end (keys +
  // values, one copy); `open_loop` selects the demand cap of the
  // reservation attainment.
  void Finish(const std::vector<std::unique_ptr<Tenant>>& tenants,
              uint64_t live_bytes, bool open_loop) {
    Stopwatch sw;
    const Counters final_counters = Capture(*cl_, Depth::kTotals);
    if (opt_.traced) {
      CheckConservation(*cl_, &rep_->conservation_cells,
                        &rep_->conservation_violations);
      spans_.Drain(*cl_);
    }
    const SpanBreakdown spans = spans_.Result();
    snapshot_s_ += sw.Seconds();

    ClientLog& log = *log_;
    double norm = 0.0;
    uint64_t samples = 0;
    for (int c = 0; c < kNumCls; ++c) {
      norm += log.window_norm(static_cast<Cls>(c));
      samples += log.samples(static_cast<Cls>(c)).size();
    }
    auto virt = [this](const char* k, double v) {
      rep_->virt.emplace_back(k, v);
    };
    auto lvirt = [this](const std::string& k, double v) {
      rep_->layer_virt.emplace_back(k, v);
    };
    auto lhost = [this](const std::string& k, double v) {
      rep_->layer_host.emplace_back(k, v);
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    // Reservation attainment in the window, in normalized requests summed
    // over the reserved classes: achieved / min(reserved, demand). The
    // end-to-end figure pools every tenant (does the node deliver what it
    // booked?); the worst tenant group (tenants running one mix, as Fig. 11
    // reports them) and the worst tenant are per-layer figures.
    std::map<int, std::pair<double, double>> by_group;  // achieved, owed
    double worst_tenant = std::numeric_limits<double>::infinity();
    double achieved_all = 0.0, owed_all = 0.0;
    for (const auto& ts : tenants) {
      double achieved = 0.0, owed = 0.0;
      for (int c = 0; c < kNumCls; ++c) {
        const double reserved =
            ts->reservation.RateOf(kAppOf[c]) * window_s_;
        if (reserved <= 0.0) {
          continue;
        }
        const Cls cls = static_cast<Cls>(c);
        achieved += log.tenant_norm(ts->index, cls);
        owed += open_loop ? std::min(reserved, log.tenant_due(ts->index, cls))
                          : reserved;
      }
      if (owed > 0.0) {
        worst_tenant = std::min(worst_tenant, achieved / owed);
        by_group[ts->group].first += achieved;
        by_group[ts->group].second += owed;
        achieved_all += achieved;
        owed_all += owed;
      }
    }
    double worst_group = std::numeric_limits<double>::infinity();
    for (const auto& [group, ao] : by_group) {
      worst_group = std::min(worst_group, ao.first / ao.second);
    }
    const double attain = ratio(achieved_all, owed_all);
    if (by_group.empty()) {
      worst_group = worst_tenant = 0.0;
    }

    virt("v_get_mean_ms", MeanMs(log.samples(kGet)));
    virt("v_get_p99_ms", PercentileMs(log.samples(kGet), 0.99));
    virt("v_put_mean_ms", MeanMs(log.samples(kPut)));
    virt("v_put_p99_ms", PercentileMs(log.samples(kPut), 0.99));
    virt("v_goodput_kreq_s", norm / window_s_ / 1000.0);
    virt("reservation_attainment", attain);
    virt("vop_per_req", ratio(end_.total_vops - start_.total_vops, norm));
    virt("write_amp",
         ratio(static_cast<double>(end_.dev_write_bytes -
                                   start_.dev_write_bytes),
               static_cast<double>(log.window_put_bytes())));
    // Space in use averages the window's slices: compaction makes the
    // filesystem footprint a sawtooth, so one instant would be arbitrary.
    virt("space_amp", ratio(fs_used_sum_ / std::max(1, fs_used_samples_),
                            static_cast<double>(live_bytes)));

    lvirt("v_get_p50_ms", PercentileMs(log.samples(kGet), 0.50));
    lvirt("v_put_p50_ms", PercentileMs(log.samples(kPut), 0.50));
    lvirt("v_scan_mean_ms", MeanMs(log.samples(kScan)));
    lvirt("v_scan_p50_ms", PercentileMs(log.samples(kScan), 0.50));
    lvirt("v_scan_p99_ms", PercentileMs(log.samples(kScan), 0.99));
    for (int c = 0; c < kNumCls; ++c) {
      lvirt(std::string("client.") + kClsName[c] + "_samples",
            static_cast<double>(log.samples(static_cast<Cls>(c)).size()));
    }
    lvirt("client.max_lag_ms", static_cast<double>(log.max_lag()) / 1e6);
    lvirt("reservation_shortfall", std::max(0.0, 1.0 - worst_tenant));
    lvirt("reservation_worst_group", worst_group);
    lvirt("cluster.rpcs_per_req",
          ratio(static_cast<double>(rpcs_end_ - rpcs_start_),
                static_cast<double>(samples)));
    lvirt("cluster.rebalances",
          static_cast<double>(cl_->rebalance_log().total_appended()));
    lvirt("sim.events", static_cast<double>(events_));
    lvirt("sim.epochs", static_cast<double>(epochs_));
    lvirt("sim.messages_per_epoch",
          ratio(static_cast<double>(messages_), static_cast<double>(epochs_)));

    if (opt_.traced) {
      const Counters& a = start_;
      const Counters& b = end_;
      for (int c = 0; c < kNumCls; ++c) {
        lvirt(std::string("kv.") + kClsName[c] + "_p99_ms",
              b.kv_latency[c].Minus(a.kv_latency[c]).PercentileMs(0.99));
      }
      auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(x - y); };
      lvirt("lsm.flushes", d(b.flushes, a.flushes));
      lvirt("lsm.compactions", d(b.compactions, a.compactions));
      lvirt("lsm.flush_bytes", d(b.flush_bytes, a.flush_bytes));
      lvirt("lsm.compact_bytes_read",
            d(b.compact_bytes_read, a.compact_bytes_read));
      lvirt("lsm.compact_bytes_written",
            d(b.compact_bytes_written, a.compact_bytes_written));
      lvirt("lsm.stall_ns", d(b.stall_ns, a.stall_ns));
      const double gets = d(b.lsm_gets, a.lsm_gets);
      lvirt("lsm.tables_probed_per_get",
            ratio(d(b.tables_probed, a.tables_probed), gets));
      lvirt("lsm.bloom_negative_ratio",
            ratio(d(b.bloom_negatives, a.bloom_negatives),
                  d(b.bloom_probes, a.bloom_probes)));
      lvirt("lsm.data_block_reads_per_get",
            ratio(d(b.data_block_reads, a.data_block_reads), gets));
      const double hits = d(b.bcache_hits, a.bcache_hits);
      lvirt("lsm.bcache_hit_ratio",
            ratio(hits, hits + d(b.bcache_misses, a.bcache_misses)));
      lvirt("fs.bytes_used", static_cast<double>(final_counters.fs_bytes_used));
      lvirt("fs.files", static_cast<double>(final_counters.fs_files));
      for (int c = 0; c < kNumIoCls; ++c) {
        const std::string p = std::string("iosched.") + kIoClsName[c] + ".";
        const Buckets qw = b.queue_wait[c].Minus(a.queue_wait[c]);
        const Buckets sv = b.service[c].Minus(a.service[c]);
        lvirt(p + "queue_wait_p50_ms", qw.PercentileMs(0.50));
        lvirt(p + "queue_wait_p99_ms", qw.PercentileMs(0.99));
        lvirt(p + "service_p50_ms", sv.PercentileMs(0.50));
        lvirt(p + "service_p99_ms", sv.PercentileMs(0.99));
      }
      const double dev_ops =
          d(b.dev_reads, a.dev_reads) + d(b.dev_writes, a.dev_writes);
      lvirt("iosched.rounds_per_op", ratio(d(b.rounds, a.rounds), dev_ops));
      for (int c = 0; c < kNumCls; ++c) {
        const int app = static_cast<int>(kAppOf[c]);
        lvirt(std::string("iosched.vops_per_req.") + kClsName[c],
              ratio(b.vops_by_app[app] - a.vops_by_app[app],
                    log.window_norm(static_cast<Cls>(c))));
      }
      lvirt("ssd.reads", d(b.dev_reads, a.dev_reads));
      lvirt("ssd.writes", d(b.dev_writes, a.dev_writes));
      lvirt("ssd.write_bytes", d(b.dev_write_bytes, a.dev_write_bytes));
      lvirt("ssd.gc_pages_moved", d(b.gc_pages_moved, a.gc_pages_moved));
      lvirt("ssd.ftl_write_amp", b.ftl_write_amp);
      lvirt("ssd.avg_queue_depth", b.avg_queue_depth);
      lvirt("span.requests", static_cast<double>(spans.requests));
      lvirt("span.route_rpc_share", spans.route_rpc_share);
      lvirt("span.node_other_share", spans.node_other_share);
      lvirt("span.device_io_share", spans.device_io_share);
    }

    std::vector<double> add = add_us_;
    std::sort(add.begin(), add.end());
    lhost("cluster.add_tenant_us_p50", add.empty() ? 0.0 : add[add.size() / 2]);
    lhost("cluster.add_tenant_us_max", add.empty() ? 0.0 : add.back());
    lhost("sim.host_ns_per_event",
          ratio(run_s_ * 1e9, static_cast<double>(events_)));
    lhost("sim.host_ns_per_epoch",
          ratio(run_s_ * 1e9, static_cast<double>(epochs_)));
    lhost("host.calibrate_s", calibrate_s_);
    lhost("host.add_tenants_s", add_tenants_s_);
    lhost("host.preload_s", preload_s_);
    lhost("host.run_s", run_s_);
    lhost("host.snapshot_s", snapshot_s_);
    lhost("host.verify_s", verify_s_);
    lhost("host.rss_after_setup_mb", rss_after_setup_mb_);

    rep_->host.emplace_back("setup_s", setup_s_);
    rep_->host.emplace_back("sim_req_per_s",
                            ratio(static_cast<double>(run_completed_), run_s_));
    rep_->attempted = log.attempted();
    rep_->failed = log.failed() + admission_failures_;
    rep_->wrong = log.wrong();
    series_ += "]";
    rep_->series_json = series_;
  }

  Cluster& cluster() { return *cl_; }
  Shared& shared() { return sh_; }

 private:
  void Slice(SimDuration since_start, const Counters& c) {
    if (since_start > warm_) {
      fs_used_sum_ += static_cast<double>(c.fs_bytes_used);
      ++fs_used_samples_;
    }
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"t_ms\": %" PRId64 ", \"vops\": %.17g, \"ssd_reads\": %" PRIu64
        ", \"ssd_writes\": %" PRIu64 ", \"ssd_write_bytes\": %" PRIu64
        ", \"fs_bytes_used\": %" PRIu64 ", \"lsm_flushes\": %" PRIu64
        ", \"lsm_compactions\": %" PRIu64 ", \"lsm_gets\": %" PRIu64
        ", \"client_completed\": %" PRIu64 "}",
        series_.size() > 1 ? ", " : "", since_start / kMillisecond,
        c.total_vops, c.dev_reads, c.dev_writes, c.dev_write_bytes,
        c.fs_bytes_used, c.flushes, c.compactions, c.lsm_gets,
        log_->completed());
    series_ += buf;
  }

  Options opt_;
  Report* rep_;
  Stopwatch setup_clock_;
  Engine eng_;
  std::unique_ptr<Cluster> cl_;
  RpcCounter rpcs_;
  std::unique_ptr<ClientLog> log_;
  Shared sh_;
  std::vector<double> add_us_;
  uint64_t admission_failures_ = 0;
  double calibrate_s_ = 0, add_tenants_s_ = 0, preload_s_ = 0, run_s_ = 0,
         verify_s_ = 0, snapshot_s_ = 0, setup_s_ = 0,
         rss_after_setup_mb_ = 0, window_s_ = 1;
  uint64_t events_ = 0, epochs_ = 0, messages_ = 0, run_completed_ = 0;
  uint64_t rpcs_start_ = 0, rpcs_end_ = 0;
  Counters start_, end_;
  SpanTally spans_;
  std::string series_ = "[";
  SimDuration warm_ = 0;
  double fs_used_sum_ = 0.0;  // filesystem bytes at the window's slices
  int fs_used_samples_ = 0;
};

// Draws the static object sizes and the put-model shape of a closed-loop
// tenant from the run seed.
void ShapeTenant(Tenant* ts, int workers, uint64_t seed) {
  Rng rng(seed);
  const Mix& mix = ts->mix;
  const libra::LogNormalSize dist(mix.get_kb * 1024.0, mix.sigma_kb * 1024.0,
                                  64, 1 * kMiB);
  uint64_t bytes = 0;
  while (bytes < mix.static_bytes) {
    const uint32_t s = static_cast<uint32_t>(dist.Sample(rng));
    ts->sizes.push_back(s);
    bytes += s;
  }
  if (mix.zipf_theta > 0.0) {
    ts->zipf = std::make_unique<libra::ZipfGenerator>(ts->sizes.size(),
                                                      mix.zipf_theta);
    // Scatter popular ranks over the key range (an odd multiplier coprime
    // with n), so hot objects do not share SSTable blocks by construction.
    const uint64_t n = ts->sizes.size();
    ts->scramble = 2654435761ULL % n;
    while (std::gcd(ts->scramble, n) != 1) {
      ++ts->scramble;
    }
  }
  ts->put_version.assign(workers,
                         std::vector<uint32_t>(mix.put_keys_per_worker, 0));
  ts->put_size.assign(workers,
                      std::vector<uint32_t>(mix.put_keys_per_worker, 0));
}

uint64_t LiveBytes(const std::vector<std::unique_ptr<Tenant>>& tenants,
                   uint32_t open_value_bytes) {
  uint64_t live = 0;
  for (const auto& ts : tenants) {
    for (const uint32_t s : ts->sizes) {
      live += s + StaticKey(0).size();
    }
    for (size_t w = 0; w < ts->put_version.size(); ++w) {
      for (size_t k = 0; k < ts->put_version[w].size(); ++k) {
        if (ts->put_version[w][k] > 0) {
          live += ts->put_size[w][k] + PutKey(0, 0).size();
        }
      }
    }
    live += ts->open_keys * (open_value_bytes + OpenKey(0).size());
  }
  return live;
}

uint64_t Mix64(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string ConfigJson(const std::vector<std::pair<std::string, std::string>>&
                           fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += (i ? ", \"" : "\"") + fields[i].first + "\": " + fields[i].second;
  }
  return out + "}";
}

std::string Q(const std::string& s) { return "\"" + s + "\""; }

// ---------------------------------------------------------------------------
// provisioned_mix

struct Group {
  int count;
  double get_fraction;
  double get_kb;
  double put_kb;
};
constexpr Group kMixGroups[] = {
    {3, 0.9, 4, 16},     // read-heavy
    {2, 0.5, 64, 16},    // mixed
    {3, 0.1, 128, 128},  // write-heavy
};

// Fig. 11's setup: tenants run unreserved (equal shares) while their
// profiles build; then the node's capacity floor is split evenly and each
// tenant's share becomes a GET/PUT reservation priced by its profile and
// split by its normalized demand ratio. The price is the group's measured
// VOPs per normalized request over the whole profiling phase (flush and
// compaction included) rather than the policy's instantaneous EWMA, which
// swings with compaction timing (read-heavy PUTs: 1.0-2.9 VOPs at one
// instant) and would make every latency behind it depend on the seed.
class Reserver {
 public:
  Reserver(Cluster* cl, std::vector<std::unique_ptr<Tenant>>* tenants)
      : cl_(cl), tenants_(tenants) {}

  void Probe() { start_ = Totals(); }

  void Reserve() {
    const std::vector<double> end = Totals();
    libra::kv::StorageNode& node = cl_->node(0);
    const double share = node.capacity().provisionable() /
                         static_cast<double>(tenants_->size());
    size_t first = 0;
    for (const Group& g : kMixGroups) {
      double vops[2] = {}, norm[2] = {};
      for (size_t t = first; t < first + static_cast<size_t>(g.count); ++t) {
        for (int c = 0; c < 2; ++c) {
          vops[c] += end[4 * t + 2 * c] - start_[4 * t + 2 * c];
          norm[c] += end[4 * t + 2 * c + 1] - start_[4 * t + 2 * c + 1];
        }
      }
      const double price_get = norm[0] > 0.0 ? vops[0] / norm[0] : 0.0;
      const double price_put = norm[1] > 0.0 ? vops[1] / norm[1] : 0.0;
      const double ratio = (g.get_fraction * g.get_kb) /
                           ((1.0 - g.get_fraction) * g.put_kb);
      const double put = share / (ratio * price_get + price_put);
      for (size_t t = first; t < first + static_cast<size_t>(g.count); ++t) {
        Tenant* ts = (*tenants_)[t].get();
        ts->reservation.RateOf(AppRequest::kGet) = ratio * put;
        ts->reservation.RateOf(AppRequest::kPut) = put;
        const Status s = cl_->UpdateGlobalReservation(ts->id, ts->reservation);
        if (!s.ok()) {
          std::fprintf(stderr, "UpdateGlobalReservation(%u): %s\n", ts->id,
                       s.message().c_str());
          ++failures_;
        }
      }
      first += static_cast<size_t>(g.count);
    }
  }

  uint64_t failures() const { return failures_; }

 private:
  // Per tenant: GET VOPs, GET normalized requests, PUT VOPs, PUT requests.
  std::vector<double> Totals() const {
    const libra::iosched::ResourceTracker& tr = cl_->node(0).tracker();
    std::vector<double> out;
    for (const auto& ts : *tenants_) {
      for (const AppRequest app : {AppRequest::kGet, AppRequest::kPut}) {
        double v = 0.0;
        for (int i = 0; i < libra::iosched::kNumInternalOps; ++i) {
          for (const auto type :
               {libra::ssd::IoType::kRead, libra::ssd::IoType::kWrite}) {
            v += tr.VopsBy(ts->id, app,
                           static_cast<libra::iosched::InternalOp>(i), type);
          }
        }
        out.push_back(v);
        out.push_back(tr.NormalizedRequestsTotal(ts->id, app));
      }
    }
    return out;
  }

  Cluster* cl_;
  std::vector<std::unique_ptr<Tenant>>* tenants_;
  std::vector<double> start_;
  uint64_t failures_ = 0;
};void RunProvisionedMix(const Options& opt, Report* rep) {
  constexpr int kWorkers = 4;
  Harness hx(opt, rep);
  ClusterOptions copt;
  copt.num_nodes = 1;
  copt.node_options = hx.PrototypeNode();
  copt.provisioner.interval = 1 * kSecond;
  // The reservations book the node to its floor at amplified prices; the
  // cluster's admission check prices at the unamplified cost model and
  // would refuse them. Admission is loaded on tenant_scale.
  copt.admission_enabled = false;
  hx.Build(copt, /*parallel=*/false);

  const uint64_t static_bytes = opt.tiny ? 1 * kMiB : 8 * kMiB;
  const uint64_t put_bytes = opt.tiny ? 256 * kKiB : 2 * kMiB;
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (const Group& g : kMixGroups) {
    for (int i = 0; i < g.count; ++i) {
      auto ts = std::make_unique<Tenant>();
      ts->index = static_cast<int>(tenants.size());
      ts->group = static_cast<int>(&g - kMixGroups);
      ts->id = static_cast<TenantId>(ts->index + 1);
      ts->mix.get_fraction = g.get_fraction;
      ts->mix.get_kb = g.get_kb;
      ts->mix.put_kb = g.put_kb;
      ts->mix.sigma_kb = 1.0;
      ts->mix.static_bytes = static_bytes;
      ts->mix.put_keys_per_worker = static_cast<int>(std::max<uint64_t>(
          4, put_bytes / (kWorkers * static_cast<uint64_t>(g.put_kb * 1024))));
      ShapeTenant(ts.get(), kWorkers, Mix64(opt.seed, ts->id));
      tenants.push_back(std::move(ts));
    }
  }
  hx.Admit(tenants);
  hx.PreloadAll(tenants);

  const SimDuration probe_at = opt.tiny ? 250 * kMillisecond : 2 * kSecond;
  const SimDuration reserve_at = opt.tiny ? 1 * kSecond : 12 * kSecond;
  Timeline tl;
  tl.warm = reserve_at + (opt.tiny ? 500 : 2000) * kMillisecond;
  tl.window = opt.tiny ? 1 * kSecond : 16 * kSecond;
  tl.slice = opt.tiny ? 250 * kMillisecond : 1 * kSecond;
  Reserver reserver(&hx.cluster(), &tenants);
  hx.RunClients(
      tl,
      [&](sim::TaskGroup& group) {
        for (auto& ts : tenants) {
          for (int w = 0; w < kWorkers; ++w) {
            group.Spawn(ClosedWorker(&hx.shared(), ts.get(), w,
                                     Mix64(opt.seed, ts->id * 100 + w + 7)));
          }
        }
      },
      {{probe_at, [&reserver] { reserver.Probe(); }},
       {reserve_at, [&reserver] { reserver.Reserve(); }}});
  hx.VerifyAll(tenants);
  hx.Finish(tenants, LiveBytes(tenants, 0), /*open_loop=*/false);
  rep->failed += reserver.failures();
  rep->config_json = ConfigJson(
      {{"engine", Q("serial")}, {"nodes", "1"}, {"tenants", "8"},
       {"workers_per_tenant", std::to_string(kWorkers)},
       {"load", Q("closed")},
       {"static_bytes_per_tenant", std::to_string(static_bytes)},
       {"put_bytes_per_tenant", std::to_string(put_bytes)},
       {"write_buffer_bytes",
        std::to_string(copt.node_options.lsm_options.write_buffer_bytes)},
       {"block_cache_bytes", "0"}, {"object_cache", "false"},
       {"bloom_bits_per_key", "0"}});
}

// ---------------------------------------------------------------------------
// read_scan

void RunReadScan(const Options& opt, Report* rep) {
  constexpr int kTenants = 8;
  constexpr int kWorkers = 4;
  Harness hx(opt, rep);
  ClusterOptions copt;
  copt.num_nodes = 4;
  copt.node_options = hx.PrototypeNode();
  copt.provisioner.interval = 1 * kSecond;
  libra::lsm::LsmOptions& lsm = copt.node_options.lsm_options;
  lsm.write_buffer_bytes = 256 * kKiB;
  lsm.target_file_bytes = 256 * kKiB;
  lsm.max_bytes_level1 = 1 * kMiB;
  lsm.bloom_bits_per_key = 10;
  lsm.block_cache_bytes = opt.tiny ? 256 * kKiB : 1 * kMiB;  // per node
  hx.Build(copt, /*parallel=*/false);

  const uint64_t static_bytes = opt.tiny ? 256 * kKiB : 2 * kMiB;
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (int i = 0; i < kTenants; ++i) {
    auto ts = std::make_unique<Tenant>();
    ts->index = i;
    ts->id = static_cast<TenantId>(i + 1);
    ts->mix.get_fraction = 0.85;
    ts->mix.scan_fraction = 0.10;
    ts->mix.absent_fraction = 0.25;
    ts->mix.zipf_theta = 0.99;
    ts->mix.get_kb = 1.0;
    ts->mix.put_kb = 1.0;
    ts->mix.sigma_kb = 0.25;
    ts->mix.static_bytes = static_bytes;
    ts->mix.put_keys_per_worker = 64;
    // ~70% of the unreserved per-tenant rates (scans return ~17
    // normalized requests each).
    ts->reservation.RateOf(AppRequest::kGet) = 2300.0;
    ts->reservation.RateOf(AppRequest::kPut) = 140.0;
    ts->reservation.RateOf(AppRequest::kScan) = 4000.0;
    ShapeTenant(ts.get(), kWorkers, Mix64(opt.seed, ts->id));
    tenants.push_back(std::move(ts));
  }
  hx.Admit(tenants);
  hx.PreloadAll(tenants);

  Timeline tl;
  tl.warm = opt.tiny ? 500 * kMillisecond : 1 * kSecond;
  tl.window = opt.tiny ? 1 * kSecond : 4 * kSecond;
  tl.slice = opt.tiny ? 250 * kMillisecond : 500 * kMillisecond;
  hx.RunClients(
      tl,
      [&](sim::TaskGroup& group) {
        for (auto& ts : tenants) {
          for (int w = 0; w < kWorkers; ++w) {
            group.Spawn(ClosedWorker(&hx.shared(), ts.get(), w,
                                     Mix64(opt.seed, ts->id * 100 + w + 7)));
          }
        }
      });
  hx.VerifyAll(tenants);
  hx.Finish(tenants, LiveBytes(tenants, 0), /*open_loop=*/false);
  rep->config_json = ConfigJson(
      {{"engine", Q("serial")}, {"nodes", "4"},
       {"tenants", std::to_string(kTenants)},
       {"workers_per_tenant", std::to_string(kWorkers)},
       {"load", Q("closed")},
       {"static_bytes_per_tenant", std::to_string(static_bytes)},
       {"live_bytes_per_node_approx",
        std::to_string(static_bytes * kTenants / 4)},
       {"block_cache_bytes_per_node", std::to_string(lsm.block_cache_bytes)},
       {"write_buffer_bytes", std::to_string(lsm.write_buffer_bytes)},
       {"bloom_bits_per_key", "10"}, {"object_cache", "false"}});
}

// ---------------------------------------------------------------------------
// tenant_scale

void RunTenantScale(const Options& opt, Report* rep) {
  const int nodes = opt.tiny ? 4 : 16;
  const int num_tenants = opt.tiny ? 64 : 2000;
  Harness hx(opt, rep);
  ClusterOptions copt;
  copt.num_nodes = nodes;
  copt.replication_factor = 2;
  copt.node_options = hx.PrototypeNode();
  copt.provisioner.interval = 1 * kSecond;
  copt.admission_enabled = true;
  copt.rpc_latency = 50 * kMicrosecond;
  hx.Build(copt, /*parallel=*/true);

  std::vector<std::unique_ptr<Tenant>> tenants;
  for (int i = 0; i < num_tenants; ++i) {
    auto ts = std::make_unique<Tenant>();
    ts->index = i;
    ts->id = static_cast<TenantId>(i + 1);
    ts->reservation.RateOf(AppRequest::kGet) = 20.0;
    ts->reservation.RateOf(AppRequest::kPut) = 10.0;
    tenants.push_back(std::move(ts));
  }
  hx.Admit(tenants);
  hx.PreloadAll(tenants);  // nothing to preload: data arrives open loop

  Shared& sh = hx.shared();
  sh.open_value_bytes = 256;
  sh.open_rate = 6.0;  // below the 10/s PUT (20/s GET) reservation
  Timeline tl;
  tl.warm = 500 * kMillisecond;
  tl.window = opt.tiny ? 1 * kSecond : 2 * kSecond;
  tl.slice = 250 * kMillisecond;
  hx.RunClients(
      tl,
      [&](sim::TaskGroup& group) {
        for (auto& ts : tenants) {
          group.Spawn(OpenTenant(&sh, ts.get(), Mix64(opt.seed, ts->id)));
        }
      });
  hx.VerifyAll(tenants);
  hx.Finish(tenants, LiveBytes(tenants, sh.open_value_bytes),
            /*open_loop=*/true);
  rep->config_json = ConfigJson(
      {{"engine", Q("parallel")}, {"nodes", std::to_string(nodes)},
       {"tenants", std::to_string(num_tenants)},
       {"replication_factor", "2"}, {"admission", "true"},
       {"rpc_latency_us", "50"},
       {"sim_threads", std::to_string(opt.sim_threads)},
       {"load", Q("open")}, {"put_rate_per_tenant", "6"},
       {"value_bytes", "256"},
       {"write_buffer_bytes",
        std::to_string(copt.node_options.lsm_options.write_buffer_bytes)},
       {"block_cache_bytes", "0"}, {"object_cache", "false"}});
}

}  // namespace

bool RunWorkload(const Options& opt, Report* report) {
  if (opt.workload == "provisioned_mix") {
    RunProvisionedMix(opt, report);
  } else if (opt.workload == "tenant_scale") {
    RunTenantScale(opt, report);
  } else if (opt.workload == "read_scan") {
    RunReadScan(opt, report);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench

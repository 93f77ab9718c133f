// Shared declarations of the end-to-end benchmark driver.
//
// One driver process runs ONE repetition of one workload on one seed:
// calibration, cluster build, tenant admission, preload, a virtual-time run
// with a warm-up and a measured window, a verification pass, then a JSON
// document on stdout. run.py launches repetitions and aggregates them.
//
// Everything the driver knows about the system comes through public
// functions: cluster::Cluster / TenantHandle for requests, per-node
// accessors (scheduler, tracker, device, filesystem, partitions, metrics)
// for counters, and a pass-through RpcFaultInjector that only counts RPCs.

#ifndef PERFBENCH_DRIVER_BENCH_H_
#define PERFBENCH_DRIVER_BENCH_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/units.h"
#include "src/sim/event_loop.h"
#include "src/sim/multi_loop.h"

namespace perfbench {

using libra::SimDuration;
using libra::SimTime;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int sim_threads = 1;  // tenant_scale only (MultiLoop worker threads)
  bool traced = false;  // span collector + per-layer capture
  // Test hook: corrupts one expected GET value so the correctness gate
  // must fire (the smoke tests run it).
  bool corrupt_expectation = false;
  // Shrinks tenant counts, data sizes and durations (smoke tests).
  bool tiny = false;
};

// Request classes as the client sees them.
enum Cls : int { kGet = 0, kPut = 1, kScan = 2 };
inline constexpr int kNumCls = 3;
inline constexpr const char* kClsName[kNumCls] = {"get", "put", "scan"};

enum class Outcome { kOk, kFailed, kWrong };

// Host wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Client-side record of every request: outcomes, exact virtual latencies of
// requests that begin inside the measured window, and per-tenant normalized
// throughput there. Lives on the coordinator loop (single-threaded).
class ClientLog {
 public:
  explicit ClientLog(int tenants);

  void SetWindow(SimTime start, SimTime end) {
    window_start_ = start;
    window_end_ = end;
  }
  bool InWindow(SimTime t) const {
    return t >= window_start_ && t < window_end_;
  }

  // `begin` is the issue time (closed loop) or the due time (open loop);
  // `bytes` is the payload moved (value bytes; summed entry bytes for a
  // scan) and sets the request's normalized 1 KB weight.
  void Record(int tenant, Cls cls, SimTime begin, SimTime end,
              uint64_t bytes, Outcome outcome);
  // Open loop: one request of `cls` fell due for `tenant` (demand).
  void RecordDue(int tenant, Cls cls, SimTime due, uint64_t bytes);
  // Open loop: how late the generator issued a request past its due time.
  void RecordLag(SimDuration lag) { max_lag_ = std::max(max_lag_, lag); }
  SimDuration max_lag() const { return max_lag_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t wrong() const { return wrong_; }
  uint64_t completed() const { return completed_; }
  std::vector<int64_t>& samples(Cls c) { return lat_[c]; }
  double window_norm(Cls c) const { return window_norm_[c]; }
  uint64_t window_put_bytes() const { return window_put_bytes_; }
  double tenant_norm(int tenant, Cls c) const {
    return tenant_norm_[static_cast<size_t>(tenant)][c];
  }
  double tenant_due(int tenant, Cls c) const {
    return tenant_due_[static_cast<size_t>(tenant)][c];
  }

 private:
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
  uint64_t completed_ = 0;
  std::vector<int64_t> lat_[kNumCls];
  double window_norm_[kNumCls] = {};
  uint64_t window_put_bytes_ = 0;
  SimDuration max_lag_ = 0;
  std::vector<std::array<double, kNumCls>> tenant_norm_;
  std::vector<std::array<double, kNumCls>> tenant_due_;
};

// Exact percentile of raw samples (nearest rank); sorts `v` in place.
double PercentileMs(std::vector<int64_t>& v, double p);
double MeanMs(const std::vector<int64_t>& v);

// Minimal JSON object writer (numbers keep all their digits).
class Json {
 public:
  void Num(const std::string& key, double v);
  void Int(const std::string& key, uint64_t v);
  void Str(const std::string& key, const std::string& v);
  void Raw(const std::string& key, const std::string& json);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Counts every routed seam RPC; never drops or delays (installed in every
// run, so the virtual timeline is the same as with no injector at all).
class RpcCounter : public libra::cluster::RpcFaultInjector {
 public:
  libra::cluster::RpcFault OnRpc(libra::iosched::TenantId, int) override {
    ++rpcs_;
    return {};
  }
  uint64_t rpcs() const { return rpcs_; }

 private:
  uint64_t rpcs_ = 0;
};

// The engine a workload runs on: the serial EventLoop or the parallel
// MultiLoop (loop 0 = clients, loop i + 1 = node i).
struct Engine {
  std::unique_ptr<libra::sim::EventLoop> serial;
  std::unique_ptr<libra::sim::MultiLoop> multi;

  libra::sim::EventLoop& client() { return multi ? multi->loop(0) : *serial; }
  uint64_t RunUntil(SimTime t) {
    return multi ? multi->RunUntil(t) : serial->RunUntil(t);
  }
  uint64_t Run() { return multi ? multi->Run() : serial->Run(); }
  // Runs `fn` at virtual time `when` with every loop quiesced.
  void AtTime(SimTime when, std::function<void()> fn);
};

// Everything one repetition reports. Virtual metrics must repeat exactly
// for a seed; host metrics are wall-clock/CPU/RSS measurements.
struct Report {
  std::vector<std::pair<std::string, double>> virt;        // end-to-end
  std::vector<std::pair<std::string, double>> layer_virt;  // per-layer
  std::vector<std::pair<std::string, double>> host;
  std::vector<std::pair<std::string, double>> layer_host;
  std::string series_json = "[]";  // per-slice counters (traced runs)
  std::string config_json = "{}";  // workload shape: sizes, caches, loop
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t conservation_cells = 0;
  uint64_t conservation_violations = 0;
};

// Runs one repetition of `opt.workload`; returns false for an unknown name.
bool RunWorkload(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_H_

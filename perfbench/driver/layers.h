// Per-layer counter capture: sums every node's public counters at one
// quiesced instant, so two captures bracket the measured window.

#ifndef PERFBENCH_DRIVER_LAYERS_H_
#define PERFBENCH_DRIVER_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/driver/bench.h"
#include "src/cluster/cluster.h"
#include "src/obs/histogram.h"
#include "src/obs/span.h"

namespace perfbench {

// Latency histogram bucket counts (virtual ns), summable across series and
// diffable between two captures of the same cumulative histograms.
class Buckets {
 public:
  void Add(const libra::obs::LatencyHistogram& h);
  Buckets Minus(const Buckets& earlier) const;
  uint64_t count() const;
  // Upper bound of the bucket holding the ceil(p * count)-th sample, in ms.
  double PercentileMs(double p) const;

 private:
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> b_;  // lower -> width, n
};

// Scheduler IO classes reported per layer: the three direct request
// classes and the two background rewrites (any originating request).
enum IoCls : int { kIoGet, kIoPut, kIoScan, kIoFlush, kIoCompact };
inline constexpr int kNumIoCls = 5;
inline constexpr const char* kIoClsName[kNumIoCls] = {"get", "put", "scan",
                                                      "flush", "compact"};

enum class Depth {
  kTotals,    // device, scheduler and filesystem totals (cheap)
  kCounters,  // + per-tenant LSM counters and per-class VOPs
  kFull,      // + request and IO-lifecycle latency histograms
};

struct Counters {
  // ssd
  uint64_t dev_reads = 0;
  uint64_t dev_writes = 0;
  uint64_t dev_write_bytes = 0;
  uint64_t gc_pages_moved = 0;
  double ftl_write_amp = 0.0;    // mean over nodes (cumulative)
  double avg_queue_depth = 0.0;  // mean over nodes (cumulative)
  // iosched
  double total_vops = 0.0;
  uint64_t rounds = 0;
  // fs
  uint64_t fs_bytes_used = 0;
  uint64_t fs_files = 0;
  // kCounters and up
  double vops_by_app[libra::iosched::kNumAppRequests] = {};
  uint64_t lsm_gets = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t flush_bytes = 0;
  uint64_t compact_bytes_read = 0;
  uint64_t compact_bytes_written = 0;
  uint64_t stall_ns = 0;
  uint64_t tables_probed = 0;
  uint64_t bloom_probes = 0;
  uint64_t bloom_negatives = 0;
  uint64_t data_block_reads = 0;
  uint64_t bcache_hits = 0;
  uint64_t bcache_misses = 0;
  // kFull
  Buckets kv_latency[kNumCls];
  Buckets queue_wait[kNumIoCls];
  Buckets service[kNumIoCls];
};

// Must run with the engine quiesced (an Engine::AtTime hook or between
// runs).
Counters Capture(libra::cluster::Cluster& cl, Depth depth);

// Bit-for-bit VOP conservation: on every node, each tenant's attributed
// VOP total (span collector's AttributionEstimator) must equal the
// scheduler's charges to it (ResourceTracker). Needs the span collector.
void CheckConservation(libra::cluster::Cluster& cl, uint64_t* cells,
                       uint64_t* violations);

// Splits the sampled client requests' virtual latency into layers from the
// span collectors: routing + RPC legs (client span minus node request
// span), node-side time outside device IO, and device IO (queue wait +
// service), each as a share of the requests' summed client latency.
// Drain() reads the spans recorded since its previous call, so call it
// often enough that no collector's ring wraps in between.
struct SpanBreakdown {
  uint64_t requests = 0;  // sampled requests with client and node spans
  double route_rpc_share = 0.0;
  double node_other_share = 0.0;
  double device_io_share = 0.0;
};

class SpanTally {
 public:
  void Drain(libra::cluster::Cluster& cl);
  SpanBreakdown Result() const;

 private:
  struct Trace {
    int64_t client_ns = -1;
    int64_t node_ns = -1;
    int64_t device_ns = 0;
  };
  void DrainOne(const libra::obs::SpanCollector* c, size_t slot);

  std::vector<uint64_t> drained_;  // per collector: spans already read
  std::unordered_map<uint64_t, Trace> traces_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LAYERS_H_

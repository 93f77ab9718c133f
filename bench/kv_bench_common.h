// Shared setup for the prototype (KV-node) benches: Figs. 2, 10, 11, 12.

#ifndef LIBRA_BENCH_KV_BENCH_COMMON_H_
#define LIBRA_BENCH_KV_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/cluster.h"
#include "src/kv/storage_node.h"
#include "src/sim/event_loop.h"
#include "src/sim/multi_loop.h"
#include "src/sim/sync.h"
#include "src/workload/workload.h"

namespace libra::bench {

// Node configured like the paper's prototype: Intel 320, exact cost model,
// no object cache, 4MB write buffers.
kv::NodeOptions PrototypeNodeOptions();

// Applies --trace-json/--trace-sample to a node's scheduler options: span
// collection on (capacity `span_capacity`) when tracing was requested,
// sampling 1 of every args.trace_sample root requests. Span ids stay in
// namespace 0; Cluster re-namespaces each node's collector
// (SpanCollector::SeedIds) for multi-node benches.
void ApplyTraceFlags(const BenchArgs& args, kv::NodeOptions& options,
                     size_t span_capacity = 1 << 16);

// Runs `preloads` to completion on `loop` (sequentially).
void RunPreloads(sim::EventLoop& loop,
                 std::vector<workload::KvTenantWorkload*> workloads);

// --- simulation rig: serial EventLoop or parallel MultiLoop ---
//
// Wraps the engine choice behind one small interface. Serial (the default:
// one EventLoop, instantaneous RPC) is byte-identical to every release
// before the parallel engine existed. Parallel (sim::MultiLoop: loop 0 for
// clients/coordination, one loop per storage node) is selected by
// --rpc-latency-us > 0 or --sim-threads > 1 and produces byte-identical
// output for every thread count at a fixed latency — only wall-clock time
// changes.
struct SimRig {
  std::unique_ptr<sim::EventLoop> serial;
  std::unique_ptr<sim::MultiLoop> multi;
  SimDuration rpc_latency = 0;  // cross-node latency (parallel mode only)

  bool parallel() const { return multi != nullptr; }
  // The loop clients (workloads, fault schedules, verifiers) run on.
  sim::EventLoop& client() { return multi ? multi->loop(0) : *serial; }
  uint64_t RunUntil(SimTime deadline) {
    return multi ? multi->RunUntil(deadline) : serial->RunUntil(deadline);
  }
  uint64_t Run() { return multi ? multi->Run() : serial->Run(); }
  // Runs `fn` at virtual time `when` with every loop quiesced: a barrier
  // hook in parallel mode, a plain event in serial mode. Required for
  // mid-run snapshots that read node-side state (trackers, policies).
  void AtTime(SimTime when, std::function<void()> fn);
};

// Builds the engine the flags ask for; `nodes` is the storage-node count
// (the parallel engine gets nodes + 1 loops). When the flags imply the
// parallel engine but leave the latency unset, a 50us default is used.
SimRig MakeSimRig(const BenchArgs& args, int nodes);

// Constructs the cluster on the rig's engine (rig.rpc_latency becomes
// ClusterOptions::rpc_latency in parallel mode).
std::unique_ptr<cluster::Cluster> MakeCluster(SimRig& rig,
                                              cluster::ClusterOptions options);

// RunPreloads on whichever engine the rig holds.
void RunPreloads(SimRig& rig,
                 std::vector<workload::KvTenantWorkload*> workloads);

}  // namespace libra::bench

#endif  // LIBRA_BENCH_KV_BENCH_COMMON_H_

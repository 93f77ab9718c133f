#include "bench/kv_bench_common.h"

namespace libra::bench {

kv::NodeOptions PrototypeNodeOptions() {
  kv::NodeOptions opt;
  opt.device_profile = ssd::Intel320Profile();
  opt.calibration = TableFor(opt.device_profile);
  opt.cost_model = "exact";
  opt.enable_cache = false;
  opt.prefill_bytes = 0;  // the LSM preload populates the FTL
  return opt;
}

void ApplyTraceFlags(const BenchArgs& args, kv::NodeOptions& options,
                     size_t span_capacity) {
  if (!TraceRequested(args)) {
    return;
  }
  options.scheduler_options.span_capacity = span_capacity;
  options.scheduler_options.span_sample_every = args.trace_sample;
}

void RunPreloads(sim::EventLoop& loop,
                 std::vector<workload::KvTenantWorkload*> workloads) {
  sim::TaskGroup group(loop);
  for (auto* wl : workloads) {
    group.Spawn(wl->Preload());
  }
  loop.Run();
}

void SimRig::AtTime(SimTime when, std::function<void()> fn) {
  if (multi) {
    multi->ScheduleBarrierAt(when, std::move(fn));
  } else {
    serial->ScheduleAt(when, [fn = std::move(fn)] { fn(); });
  }
}

SimRig MakeSimRig(const BenchArgs& args, int nodes) {
  SimRig rig;
  if (args.sim_threads <= 1 && args.rpc_latency <= 0) {
    rig.serial = std::make_unique<sim::EventLoop>();
    return rig;
  }
  rig.rpc_latency =
      args.rpc_latency > 0 ? args.rpc_latency : 50 * kMicrosecond;
  sim::MultiLoopOptions mopt;
  mopt.threads = args.sim_threads;
  mopt.lookahead = rig.rpc_latency;
  rig.multi = std::make_unique<sim::MultiLoop>(nodes + 1, mopt);
  return rig;
}

std::unique_ptr<cluster::Cluster> MakeCluster(SimRig& rig,
                                              cluster::ClusterOptions options) {
  if (rig.multi) {
    options.rpc_latency = rig.rpc_latency;
    return std::make_unique<cluster::Cluster>(*rig.multi, options);
  }
  return std::make_unique<cluster::Cluster>(*rig.serial, options);
}

void RunPreloads(SimRig& rig,
                 std::vector<workload::KvTenantWorkload*> workloads) {
  sim::TaskGroup group(rig.client());
  for (auto* wl : workloads) {
    group.Spawn(wl->Preload());
  }
  rig.Run();
}

}  // namespace libra::bench

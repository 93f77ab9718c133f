// Multi-tenant isolation: three tenants with 3:2:1 reservations hammer the
// node concurrently; Libra splits throughput by reservation. When the
// largest tenant goes idle halfway through, its share flows to the others
// (work conservation) instead of lying fallow — the paper's core advantage
// over rate limiting.

#include <cstdio>
#include <memory>
#include <vector>

#include "src/kv/storage_node.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/ssd/calibration.h"
#include "src/workload/workload.h"

using namespace libra;

int main() {
  const ssd::DeviceProfile profile = ssd::Intel320Profile();
  ssd::CalibrationOptions copt;
  copt.measure = 500 * kMillisecond;
  const ssd::CalibrationTable table = ssd::Calibrate(profile, copt);

  sim::EventLoop loop;
  kv::NodeOptions options;
  options.device_profile = profile;
  options.calibration = table;
  options.prefill_bytes = 0;
  kv::StorageNode node(loop, options);

  // Reservations in normalized 1KB requests/s, 3:2:1.
  struct TenantCfg {
    iosched::TenantId id;
    iosched::Reservation reservation;  // GET/s, PUT/s
  };
  const TenantCfg tenants[] = {{1, {6000.0, 1500.0}},
                               {2, {4000.0, 1000.0}},
                               {3, {2000.0, 500.0}}};

  std::vector<std::unique_ptr<workload::KvTenantWorkload>> workloads;
  for (const TenantCfg& t : tenants) {
    (void)node.AddTenant(t.id, t.reservation);
    workload::KvWorkloadSpec spec;
    spec.get_fraction = 0.8;
    spec.get_size = {4096.0, 0.0};
    spec.put_size = {8192.0, 0.0};
    spec.live_bytes_target = 8 * kMiB;
    spec.workers = 8;
    workloads.push_back(std::make_unique<workload::KvTenantWorkload>(
        loop, node, t.id, spec, 7 * t.id));
  }
  {
    sim::TaskGroup preload(loop);
    for (auto& wl : workloads) {
      preload.Spawn(wl->Preload());
    }
    loop.Run();
  }
  node.Start();

  const SimTime start = loop.Now();
  const SimTime half = start + 10 * kSecond;
  const SimTime end = start + 20 * kSecond;

  auto vops_of = [&](iosched::TenantId id) {
    return node.tracker().Stats(id).vops;
  };
  double at_half[4] = {0, 0, 0, 0};
  loop.ScheduleAt(half, [&] {
    for (const TenantCfg& t : tenants) {
      at_half[t.id] = vops_of(t.id);
    }
  });

  {
    sim::TaskGroup group(loop);
    // Tenant 1 (largest reservation) stops at the halfway mark.
    workloads[0]->Start(group, half);
    workloads[1]->Start(group, end);
    workloads[2]->Start(group, end);
    // The started policy keeps a timer pending forever: bound the run,
    // stop it, then drain the finite remainder.
    loop.RunUntil(end + kSecond);
    node.Stop();
    loop.Run();
  }

  std::printf("phase 1 (all three backlogged, 3:2:1 reservations):\n");
  for (const TenantCfg& t : tenants) {
    std::printf("  tenant %u: %8.0f VOP/s\n", t.id, at_half[t.id] / 10.0);
  }
  std::printf("phase 2 (tenant 1 idle — its share is redistributed):\n");
  for (const TenantCfg& t : tenants) {
    std::printf("  tenant %u: %8.0f VOP/s\n", t.id,
                (vops_of(t.id) - at_half[t.id]) / 10.0);
  }
  std::printf(
      "\nExpected: phase-1 VOP rates split ~3:2:1; in phase 2 tenants 2 and "
      "3 absorb tenant 1's share at a ~2:1 ratio (work conservation).\n");
  return 0;
}

// Closed-loop KV workload against the cluster layer's redesigned client
// API: the same GET/PUT/SCAN mix, key ranges, and log-normal sizes as
// KvTenantWorkload, but issued through a cluster::TenantHandle, so every
// request is routed to the node homing its key's shard (and suspends
// through shard migrations instead of failing). Scans fan out across every
// slot-serving node and merge at the client.

#ifndef LIBRA_SRC_WORKLOAD_CLUSTER_WORKLOAD_H_
#define LIBRA_SRC_WORKLOAD_CLUSTER_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/sim/event_loop.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/workload/workload.h"

namespace libra::workload {

class ClusterTenantWorkload : public KeySpace {
 public:
  ClusterTenantWorkload(sim::EventLoop& loop, cluster::TenantHandle handle,
                        KvWorkloadSpec spec, uint64_t seed);

  // Populates the tenant's key ranges across the cluster.
  sim::Task<void> Preload();

  uint64_t gets_done() const { return gets_done_; }
  uint64_t puts_done() const { return puts_done_; }
  uint64_t scans_done() const { return scans_done_; }
  uint64_t scan_keys_returned() const { return scan_keys_returned_; }
  uint64_t scan_errors() const { return scan_errors_; }
  uint64_t get_errors() const { return get_errors_; }
  // Failure-mode breakdown (crash experiments): requests that ultimately
  // failed kUnavailable (retry budget exhausted against down replicas) or
  // kDeadlineExceeded (RetryPolicy.deadline ran out), and PUT failures of
  // any kind. An acked PUT never lands in put_errors_.
  uint64_t put_errors() const { return put_errors_; }
  uint64_t unavailable_errors() const { return unavailable_errors_; }
  uint64_t deadline_errors() const { return deadline_errors_; }
  cluster::TenantHandle handle() const { return handle_; }

  // Size the preload chose for GET-range object `index` (for recomputing
  // expected values in correctness checks).
  uint64_t GetObjectSize(uint64_t index) const;

 private:
  sim::Task<void> Worker(SimTime end_time) override;
  void CountError(const Status& s);

  sim::EventLoop& loop_;
  cluster::TenantHandle handle_;
  uint64_t seed_;
  uint64_t gets_done_ = 0;
  uint64_t puts_done_ = 0;
  uint64_t scans_done_ = 0;
  uint64_t scan_keys_returned_ = 0;
  uint64_t scan_errors_ = 0;
  uint64_t get_errors_ = 0;
  uint64_t put_errors_ = 0;
  uint64_t unavailable_errors_ = 0;
  uint64_t deadline_errors_ = 0;
};

}  // namespace libra::workload

#endif  // LIBRA_SRC_WORKLOAD_CLUSTER_WORKLOAD_H_

#include "src/workload/cluster_workload.h"

#include <algorithm>

namespace libra::workload {

ClusterTenantWorkload::ClusterTenantWorkload(sim::EventLoop& loop,
                                             cluster::TenantHandle handle,
                                             KvWorkloadSpec spec,
                                             uint64_t seed)
    : KeySpace(spec, seed), loop_(loop), handle_(handle), seed_(seed) {}

uint64_t ClusterTenantWorkload::GetObjectSize(uint64_t index) const {
  // A pure function of (seed, index): correctness checks recompute the
  // exact preloaded object without replaying the workload's RNG stream.
  Rng rng(seed_ ^ (index * 0x9E3779B97F4A7C15ULL) ^ 0xC1057E12ULL);
  return get_dist_.Sample(rng);
}

sim::Task<void> ClusterTenantWorkload::Preload() {
  for (uint64_t i = 0; i < put_keys(); ++i) {
    const std::string key = PutKey(i);
    co_await handle_.Put(key, MakeValue(key, put_dist_.Sample(rng_)));
  }
  if (spec_.disjoint_get_range) {
    for (uint64_t i = 0; i < get_keys(); ++i) {
      const std::string key = GetKey(i);
      co_await handle_.Put(key, MakeValue(key, GetObjectSize(i)));
    }
  }
}

void ClusterTenantWorkload::CountError(const Status& s) {
  if (s.code() == StatusCode::kUnavailable) {
    ++unavailable_errors_;
  } else if (s.code() == StatusCode::kDeadlineExceeded) {
    ++deadline_errors_;
  }
}

sim::Task<void> ClusterTenantWorkload::Worker(SimTime end_time) {
  while (loop_.Now() < end_time) {
    const Request req = Next();
    switch (req.op) {
      case Op::kScan: {
        const Result<cluster::ScanEntries> r = co_await handle_.Scan(
            req.key, std::string(),
            static_cast<size_t>(std::max(1, spec_.scan_span)));
        if (r.ok()) {
          scan_keys_returned_ += r.value().size();
        } else {
          ++scan_errors_;
          CountError(r.status());
        }
        ++scans_done_;
        break;
      }
      case Op::kGet: {
        const Result<std::string> r = co_await handle_.Get(req.key);
        if (!r.ok() && r.status().code() != StatusCode::kNotFound) {
          ++get_errors_;
          CountError(r.status());
        }
        ++gets_done_;
        break;
      }
      case Op::kPut: {
        const Status s = co_await handle_.Put(
            req.key, MakeValue(req.key, req.put_bytes));
        if (!s.ok()) {
          ++put_errors_;
          CountError(s);
        }
        ++puts_done_;
        break;
      }
    }
  }
}

}  // namespace libra::workload

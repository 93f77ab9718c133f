#include "perfbench/driver/layers.h"

#include <algorithm>
#include <cmath>

#include "src/iosched/io_tag.h"
#include "src/lsm/db.h"

namespace perfbench {

using libra::cluster::Cluster;
using libra::iosched::AppRequest;
using libra::iosched::InternalOp;
using libra::iosched::kNumAppRequests;
using libra::iosched::kNumInternalOps;

void Buckets::Add(const libra::obs::LatencyHistogram& h) {
  h.ForEachBucket([this](uint64_t lower, uint64_t width, uint64_t n) {
    auto& slot = b_[lower];
    slot.first = width;
    slot.second += n;
  });
}

Buckets Buckets::Minus(const Buckets& earlier) const {
  Buckets out = *this;
  for (const auto& [lower, wn] : earlier.b_) {
    auto it = out.b_.find(lower);
    if (it != out.b_.end()) {
      it->second.second -= std::min(it->second.second, wn.second);
    }
  }
  return out;
}

uint64_t Buckets::count() const {
  uint64_t n = 0;
  for (const auto& [lower, wn] : b_) {
    n += wn.second;
  }
  return n;
}

double Buckets::PercentileMs(double p) const {
  const uint64_t n = count();
  if (n == 0) {
    return 0.0;
  }
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(n))));
  uint64_t seen = 0;
  for (const auto& [lower, wn] : b_) {
    seen += wn.second;
    if (seen >= rank) {
      return static_cast<double>(lower + wn.first - 1) / 1e6;
    }
  }
  return 0.0;
}

namespace {

int IoClassOf(AppRequest app, InternalOp op) {
  if (op == InternalOp::kFlush) {
    return kIoFlush;
  }
  if (op == InternalOp::kCompact) {
    return kIoCompact;
  }
  if (op != InternalOp::kNone) {
    return -1;
  }
  switch (app) {
    case AppRequest::kGet:
      return kIoGet;
    case AppRequest::kPut:
      return kIoPut;
    case AppRequest::kScan:
      return kIoScan;
    case AppRequest::kNone:
      return -1;
  }
  return -1;
}

}  // namespace

Counters Capture(Cluster& cl, Depth depth) {
  Counters c;
  for (int n = 0; n < cl.num_nodes(); ++n) {
    libra::kv::StorageNode& node = cl.node(n);
    const libra::ssd::DeviceStats dev = node.device().stats();
    c.dev_reads += dev.reads_completed;
    c.dev_writes += dev.writes_completed;
    c.dev_write_bytes += dev.write_bytes;
    c.gc_pages_moved += dev.gc_pages_moved;
    c.ftl_write_amp += dev.write_amp / cl.num_nodes();
    c.avg_queue_depth += dev.avg_queue_depth / cl.num_nodes();
    c.total_vops += node.tracker().total_vops();
    c.rounds += node.scheduler().rounds();
    const libra::fs::FsStats fs = node.filesystem().stats();
    c.fs_bytes_used += fs.bytes_used;
    c.fs_files += fs.files;
    if (depth == Depth::kTotals) {
      continue;
    }
    for (const libra::iosched::TenantId t : node.tenants()) {
      for (int a = 0; a < kNumAppRequests; ++a) {
        for (int i = 0; i < kNumInternalOps; ++i) {
          for (const auto type :
               {libra::ssd::IoType::kRead, libra::ssd::IoType::kWrite}) {
            c.vops_by_app[a] += node.tracker().VopsBy(
                t, static_cast<AppRequest>(a), static_cast<InternalOp>(i),
                type);
          }
        }
      }
      if (libra::lsm::LsmDb* db = node.partition(t)) {
        const libra::lsm::LsmStats s = db->stats();
        c.lsm_gets += s.gets;
        c.flushes += s.flushes;
        c.compactions += s.compactions;
        c.flush_bytes += s.flush_bytes;
        c.compact_bytes_read += s.compact_bytes_read;
        c.compact_bytes_written += s.compact_bytes_written;
        c.stall_ns += s.stall_ns;
        c.tables_probed += s.tables_probed;
        c.bloom_probes += s.bloom_probes;
        c.bloom_negatives += s.bloom_negatives;
        c.data_block_reads += s.data_block_reads;
        c.bcache_hits +=
            s.bcache_index_hits + s.bcache_filter_hits + s.bcache_data_hits;
        c.bcache_misses += s.bcache_index_misses + s.bcache_filter_misses +
                           s.bcache_data_misses;
      }
      if (depth != Depth::kFull) {
        continue;
      }
      const libra::iosched::TenantLifecycleStats* life =
          node.scheduler().lifecycle(t);
      if (life == nullptr) {
        continue;
      }
      for (int a = 0; a < kNumAppRequests; ++a) {
        for (int i = 0; i < kNumInternalOps; ++i) {
          const int cls =
              IoClassOf(static_cast<AppRequest>(a), static_cast<InternalOp>(i));
          const libra::obs::IoClassStats* st =
              life->of(static_cast<AppRequest>(a), static_cast<InternalOp>(i));
          if (cls < 0 || st == nullptr) {
            continue;
          }
          c.queue_wait[cls].Add(st->queue_wait);
          c.service[cls].Add(st->service);
        }
      }
    }
    if (depth == Depth::kFull) {
      node.metrics().ForEachHistogram(
          [&c](const std::string& name, const libra::obs::SeriesKey& key,
               const libra::obs::LatencyHistogram& h) {
            if (name != "app_request_latency_ns") {
              return;
            }
            switch (static_cast<AppRequest>(key.app)) {
              case AppRequest::kGet:
                c.kv_latency[kGet].Add(h);
                break;
              case AppRequest::kPut:
                c.kv_latency[kPut].Add(h);
                break;
              case AppRequest::kScan:
                c.kv_latency[kScan].Add(h);
                break;
              case AppRequest::kNone:
                break;
            }
          });
    }
  }
  return c;
}

void CheckConservation(Cluster& cl, uint64_t* cells, uint64_t* violations) {
  for (int n = 0; n < cl.num_nodes(); ++n) {
    libra::kv::StorageNode& node = cl.node(n);
    const libra::obs::SpanCollector* spans = node.scheduler().spans();
    if (spans == nullptr) {
      continue;
    }
    for (const libra::iosched::TenantId t : node.tenants()) {
      const double charged = node.tracker().Stats(t).vops;
      const libra::obs::AttributionMatrix* m = spans->attribution().Of(t);
      if (m == nullptr && charged == 0.0) {
        continue;  // tenant never did IO on this node
      }
      ++*cells;
      if (m == nullptr || m->total_vops != charged) {
        ++*violations;
      }
    }
  }
}

void SpanTally::Drain(Cluster& cl) {
  size_t slot = 0;
  for (int n = 0; n < cl.num_nodes(); ++n) {
    DrainOne(cl.node(n).scheduler().spans(), slot++);
  }
  DrainOne(cl.client_spans(), slot);
}

void SpanTally::DrainOne(const libra::obs::SpanCollector* c, size_t slot) {
  using libra::obs::SpanKind;
  if (drained_.size() <= slot) {
    drained_.resize(slot + 1, 0);
  }
  if (c == nullptr || c->total_recorded() == drained_[slot]) {
    return;
  }
  const std::vector<libra::obs::SpanRecord> spans = c->Spans();
  const uint64_t fresh = c->total_recorded() - drained_[slot];
  drained_[slot] = c->total_recorded();
  const size_t first =
      spans.size() > fresh ? spans.size() - static_cast<size_t>(fresh) : 0;
  for (size_t i = first; i < spans.size(); ++i) {
    const libra::obs::SpanRecord& s = spans[i];
    const int64_t d = s.end_ns - s.start_ns;
    switch (s.kind) {
      case SpanKind::kClientRequest:
        traces_[s.trace_id].client_ns = d;
        break;
      case SpanKind::kRequest:
        traces_[s.trace_id].node_ns = std::max(traces_[s.trace_id].node_ns, d);
        break;
      case SpanKind::kDeviceIo:
        traces_[s.trace_id].device_ns += d;
        break;
      default:
        break;
    }
  }
}

SpanBreakdown SpanTally::Result() const {
  SpanBreakdown out;
  int64_t route = 0, other = 0, device = 0;
  for (const auto& [id, t] : traces_) {
    if (t.client_ns < 0 || t.node_ns < 0) {
      continue;  // background work, or a half outside the drained spans
    }
    const int64_t dev = std::min(t.device_ns, t.node_ns);
    ++out.requests;
    route += std::max<int64_t>(0, t.client_ns - t.node_ns);
    other += t.node_ns - dev;
    device += dev;
  }
  const int64_t total = route + other + device;
  if (total > 0) {
    out.route_rpc_share = static_cast<double>(route) / total;
    out.node_other_share = static_cast<double>(other) / total;
    out.device_io_share = static_cast<double>(device) / total;
  }
  return out;
}

}  // namespace perfbench

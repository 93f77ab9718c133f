// Causal trace context: the identity a traced request carries through every
// layer (TenantHandle -> Cluster -> StorageNode -> lsm -> IoScheduler ->
// device).
//
// A context is two 64-bit ids: the trace (one application request and all
// IO causally downstream of it) and the span (one timed operation within
// the trace). It is a 16-byte POD, copied by value everywhere — including
// into coroutine frames, WAL batch manifests, and memtable entries — so
// propagation never allocates and the TaskGroup by-value rule (DESIGN.md
// §5) applies to it unchanged. A zero trace id means "not traced": every
// layer's recording code is a single branch on valid() when tracing is
// off, which is what keeps the disabled-path overhead within budget.
//
// This lives in common (below obs and iosched) so both the span collector
// (obs) and the IO tagging vocabulary (iosched) can embed it.

#ifndef LIBRA_SRC_COMMON_TRACE_CONTEXT_H_
#define LIBRA_SRC_COMMON_TRACE_CONTEXT_H_

#include <cstdint>

namespace libra {

struct TraceContext {
  uint64_t trace_id = 0;  // 0 = untraced
  uint64_t span_id = 0;

  // An untraced context that also records "the root's 1-in-N draw already
  // ran and sampled this request out", so a lower layer that would mint a
  // root for an untraced caller does not draw a second time. valid() stays
  // false: every layer still sees it as untraced.
  static constexpr uint64_t kSampledOutSpan = ~uint64_t{0};
  static TraceContext SampledOut() { return {0, kSampledOutSpan}; }

  bool valid() const { return trace_id != 0; }
  bool sampled_out() const {
    return trace_id == 0 && span_id == kSampledOutSpan;
  }

  friend bool operator==(const TraceContext& a, const TraceContext& b) {
    return a.trace_id == b.trace_id && a.span_id == b.span_id;
  }
};

}  // namespace libra

#endif  // LIBRA_SRC_COMMON_TRACE_CONTEXT_H_

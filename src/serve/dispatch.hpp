// Micro-batch execution for the serving layer.
//
// FleetScheduler assembles batches; run_model_batch executes one: stage the
// requests' images, run ONE model dispatch (dense batch tensor or ragged
// indirect), slice per-request outputs back out, and resolve every promise
// kOk with queue/latency accounting. Every batch feeds the serve.* counters
// and histograms, and batches tagged with a tenant id additionally feed the
// per-tenant family (serve.tenant.<id>.*, exported with a {tenant="..."}
// label by MetricsRegistry::prometheus_text()).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "serve/request.hpp"

namespace iwg::serve {

/// Per-tenant serve metrics. Registered lazily on first use under
/// `serve.tenant.<id>.{completed,rejected,expired,deadline_missed,
/// latency_us}` — names the Prometheus exposition rewrites into one metric
/// family per suffix with the tenant id as a `{tenant="..."}` label.
/// References are stable for the process lifetime (MetricsRegistry never
/// removes entries), so callers may cache the returned reference. This
/// family is also what obs::SloMonitor windows: completed+expired are the
/// SLO-eligible events, deadline_missed+expired the SLO misses.
struct TenantMetrics {
  trace::Counter& completed;
  trace::Counter& rejected;
  trace::Counter& expired;
  trace::Counter& deadline_missed;  ///< served, but past the deadline
  trace::Histogram& latency_us;

  static TenantMetrics& of(const std::string& tenant_id);
};

/// The serving loop's report-flush period: `configured` unless
/// IWG_REPORT_FLUSH_MS is set, which overrides it (0 disables).
/// FleetScheduler resolves its flush_period through this, so a deployed
/// binary's flush cadence is tunable without a rebuild.
std::chrono::microseconds resolve_flush_period(
    std::chrono::microseconds configured);

/// How run_model_batch executes one assembled micro-batch.
struct DispatchSpec {
  /// Mixed shapes: route through Model::infer_ragged (one indirect Γ
  /// dispatch per conv layer). False: one dense batch tensor.
  bool indirect = false;
  /// Distinct H×W×C shapes among the requests (trace/metrics annotation).
  int shape_classes = 1;
  /// When nonempty, also record serve.tenant.<id>.* for this batch.
  std::string tenant;
};

struct DispatchResult {
  std::int64_t completed = 0;  ///< requests resolved kOk (= batch size)
  bool indirect = false;       ///< executed as a ragged dispatch
};

/// Execute one nonempty micro-batch through `model` and resolve every
/// request's promise kOk. Thread-safe for concurrent calls on one model
/// (Model::infer / infer_ragged are const and concurrent); the caller owns
/// any weight-swap synchronization around the model reference.
DispatchResult run_model_batch(const nn::Model& model,
                               std::vector<Request>& batch,
                               const DispatchSpec& spec);

}  // namespace iwg::serve

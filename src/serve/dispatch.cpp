#include "serve/dispatch.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/trace.hpp"

namespace iwg::serve {

namespace {

trace::Histogram& batch_size_hist() {
  static trace::Histogram& h =
      trace::MetricsRegistry::global().histogram("serve.batch_size");
  return h;
}

trace::Histogram& latency_hist() {
  static trace::Histogram& h =
      trace::MetricsRegistry::global().histogram("serve.latency_us");
  return h;
}

trace::Histogram& queue_wait_hist() {
  static trace::Histogram& h =
      trace::MetricsRegistry::global().histogram("serve.queue_us");
  return h;
}

trace::Histogram& ok_latency_hist() {
  static trace::Histogram& h =
      trace::MetricsRegistry::global().histogram("serve.latency_us.ok");
  return h;
}

trace::Histogram& headroom_hist() {
  static trace::Histogram& h = trace::MetricsRegistry::global().histogram(
      "serve.deadline_headroom_us");
  return h;
}

trace::Counter& deadline_missed_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("serve.deadline_missed");
  return c;
}

trace::Counter& completed_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("serve.completed");
  return c;
}

trace::Counter& batches_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("serve.batches");
  return c;
}

trace::Counter& mode_dense_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("serve.batch.mode.dense");
  return c;
}

trace::Counter& mode_indirect_counter() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("serve.batch.mode.indirect");
  return c;
}

trace::Histogram& shape_classes_hist() {
  static trace::Histogram& h =
      trace::MetricsRegistry::global().histogram("serve.batch.shape_classes");
  return h;
}

}  // namespace

TenantMetrics& TenantMetrics::of(const std::string& tenant_id) {
  // Registry entries live for the process; this map just memoizes the
  // four name lookups per tenant so the hot path stays a map find.
  static std::mutex mu;
  static auto& map =
      *new std::unordered_map<std::string, std::unique_ptr<TenantMetrics>>();
  std::lock_guard lock(mu);
  auto it = map.find(tenant_id);
  if (it == map.end()) {
    auto& reg = trace::MetricsRegistry::global();
    const std::string p = "serve.tenant." + tenant_id + ".";
    it = map.emplace(tenant_id,
                     std::unique_ptr<TenantMetrics>(new TenantMetrics{
                         reg.counter(p + "completed"),
                         reg.counter(p + "rejected"),
                         reg.counter(p + "expired"),
                         reg.counter(p + "deadline_missed"),
                         reg.histogram(p + "latency_us")}))
             .first;
  }
  return *it->second;
}

std::chrono::microseconds resolve_flush_period(
    std::chrono::microseconds configured) {
  const char* env = std::getenv("IWG_REPORT_FLUSH_MS");
  if (env == nullptr || *env == '\0') return configured;
  char* end = nullptr;
  const long ms = std::strtol(env, &end, 10);
  if (end == env || ms < 0) return configured;  // unparsable: keep config
  return std::chrono::microseconds(static_cast<std::int64_t>(ms) * 1000);
}

DispatchResult run_model_batch(const nn::Model& model,
                               std::vector<Request>& batch,
                               const DispatchSpec& spec) {
  IWG_CHECK_MSG(!batch.empty(), "run_model_batch needs a nonempty batch");
  const std::size_t k = batch.size();
  const std::int64_t n = static_cast<std::int64_t>(k);
  const bool indirect = spec.indirect;

  // The batch span (and everything nested under it — the model's conv
  // spans included) inherits the batch leader's context, so the leader's
  // flow chain reaches into the actual compute in the trace view.
  trace::ContextScope lead_scope(batch.front().ctx);
  IWG_TRACE_SPAN(span, "serve.batch", "serve");
  span.arg("batch_size", n)
      .arg("mode", indirect ? "indirect" : "dense")
      .arg("shape_classes", static_cast<std::int64_t>(spec.shape_classes));
  if (!spec.tenant.empty()) span.arg("tenant", spec.tenant);

  // Per-request outputs, each with leading dim 1.
  std::vector<TensorF> outs(k);
  Clock::time_point dispatch;
  Clock::time_point done;
  if (indirect) {
    // Mixed shapes: stage each image as its own N = 1 tensor and run the
    // whole set through ONE ragged dispatch per layer. Outputs come back
    // per image already, bit-identical to batch-1 inference.
    std::vector<TensorF> xs(k);
    for (std::size_t i = 0; i < k; ++i) {
      trace::ContextScope req_scope(batch[i].ctx);
      IWG_TRACE_SPAN(dispatch_span, "serve.dispatch", "serve");
      dispatch_span.arg("batch_size", n)
          .arg("slot", static_cast<std::int64_t>(i));
      const TensorF& img = batch[i].input;
      xs[i].reset({1, img.dim(0), img.dim(1), img.dim(2)});
      std::memcpy(xs[i].data(), img.data(),
                  static_cast<std::size_t>(img.size()) * sizeof(float));
    }
    dispatch = Clock::now();
    outs = model.infer_ragged(xs);
    IWG_CHECK(outs.size() == k);
    done = Clock::now();
  } else {
    const TensorF& first = batch.front().input;
    const std::int64_t h = first.dim(0);
    const std::int64_t w = first.dim(1);
    const std::int64_t c = first.dim(2);
    TensorF xb({n, h, w, c});
    const std::int64_t image_elems = h * w * c;
    for (std::size_t i = 0; i < k; ++i) {
      // Per-request dispatch span: marks this request joining the
      // micro-batch on the worker thread (covers staging its image into
      // the batch tensor).
      trace::ContextScope req_scope(batch[i].ctx);
      IWG_TRACE_SPAN(dispatch_span, "serve.dispatch", "serve");
      dispatch_span.arg("batch_size", n)
          .arg("slot", static_cast<std::int64_t>(i));
      std::memcpy(xb.data() + static_cast<std::int64_t>(i) * image_elems,
                  batch[i].input.data(),
                  static_cast<std::size_t>(image_elems) * sizeof(float));
    }
    dispatch = Clock::now();
    TensorF y = model.infer(xb);
    IWG_CHECK(y.dim(0) == n);
    done = Clock::now();

    // Slice each request's output row back out (leading dim 1).
    std::vector<std::int64_t> out_dims;
    out_dims.push_back(1);
    for (int d = 1; d < y.rank(); ++d) out_dims.push_back(y.dim(d));
    const std::int64_t per = y.size() / n;
    for (std::size_t i = 0; i < k; ++i) {
      outs[i].reset(out_dims);
      std::memcpy(outs[i].data(),
                  y.data() + static_cast<std::int64_t>(i) * per,
                  static_cast<std::size_t>(per) * sizeof(float));
    }
  }

  TenantMetrics* tm =
      spec.tenant.empty() ? nullptr : &TenantMetrics::of(spec.tenant);
  for (std::size_t i = 0; i < k; ++i) {
    trace::ContextScope req_scope(batch[i].ctx);
    IWG_TRACE_SPAN(complete_span, "serve.complete", "serve");
    Response resp;
    resp.status = Status::kOk;
    resp.batch_size = n;
    resp.queue_us = std::chrono::duration<double, std::micro>(
                        dispatch - batch[i].enqueue_time)
                        .count();
    resp.latency_us = std::chrono::duration<double, std::micro>(
                          done - batch[i].enqueue_time)
                          .count();
    complete_span.arg("latency_us", resp.latency_us)
        .arg("queue_us", resp.queue_us);
    resp.output = std::move(outs[i]);
    queue_wait_hist().record(resp.queue_us);
    latency_hist().record(resp.latency_us);
    ok_latency_hist().record(resp.latency_us);
    if (tm != nullptr) tm->latency_us.record(resp.latency_us);
    if (batch[i].deadline.has_deadline()) {
      // Headroom left at completion — the SLO margin. A served-but-late
      // request records zero headroom and bumps the missed counter (it was
      // dispatched in time but finished past its budget).
      const double headroom_us = std::chrono::duration<double, std::micro>(
                                     batch[i].deadline.at() - done)
                                     .count();
      headroom_hist().record(std::max(0.0, headroom_us));
      if (headroom_us < 0.0) {
        deadline_missed_counter().add();
        if (tm != nullptr) tm->deadline_missed.add();
      }
    }
    batch[i].promise.set_value(std::move(resp));
  }

  batch_size_hist().record(static_cast<double>(k));
  batches_counter().add();
  (indirect ? mode_indirect_counter() : mode_dense_counter()).add();
  shape_classes_hist().record(static_cast<double>(spec.shape_classes));
  completed_counter().add(n);
  if (tm != nullptr) tm->completed.add(n);

  DispatchResult res;
  res.completed = n;
  res.indirect = indirect;
  return res;
}

}  // namespace iwg::serve

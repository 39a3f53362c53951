// The three workloads. Each runs set-up, a measured loop and correctness
// checks; with --trace 0 it reports the end-to-end metrics and with
// --trace 1 it reruns the loop with spans on every other operation, then
// runs the per-layer probes and reports the per-layer metrics.
//
// Why these workloads (each stresses layers the others bypass):
//   infer_resnet18  the only paper network with stride-2 convs and
//                   residual adds; a strided or epilogue change shows here,
//                   a serving-only change must leave it unmoved.
//   serve_mixed     open-loop bursts into the fleet: admission, WFQ, batch
//                   assembly and ragged indirect dispatch do real work; the
//                   only VGG16 inference.
//   train_vgg16     the only user of deconv and filter-grad, and of the
//                   filter-transform cache missing on every step; no
//                   strided conv, so a strided change must leave it unmoved.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/arena.hpp"
#include "common/trace.hpp"
#include "core/filter_cache.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "probes.hpp"
#include "serve/fleet.hpp"
#include "stats.hpp"

namespace perfbench {

using iwg::TensorF;
namespace nn = iwg::nn;
namespace serve = iwg::serve;

namespace {

/// Set-ups per untraced run; setup_s is their median. The traced run sets
/// up once.
constexpr int kSetupReps = 9;
/// Operations a loop needs for its p90 (10 samples beyond it).
constexpr std::int64_t kMinOps = 100;
/// Repetitions of each per-layer probe.
constexpr int kProbeReps = 12;
/// Round trips behind common.parallel_for_us.
constexpr int kParallelForReps = 1000;
/// Winograd vs implicit-GEMM tolerance on outputs, relative to
/// max(1, max |reference|). Both run in FP32 and the deviation measured on
/// all three workloads is 4e-7 to 3e-6, so 1e-4 leaves a wide margin for
/// other α choices while still catching a wrong tile, channel or bias.
constexpr double kGemmTolerance = 1e-4;
/// Training gradients against the kGemm model, as ‖g − g_ref‖₂ / ‖g_ref‖₂
/// over all parameters. Typical deviation is 3e-6, but a max-pool or
/// LeakyReLU branch that flips on a near-tie reroutes part of the gradient
/// (1.5e-2 on one seed in twelve), so the bound sits above that and still
/// far below the O(1) error of a wrong tile or channel.
constexpr double kGradTolerance = 5e-2;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t hash_tensor(const TensorF& t, std::uint64_t h) {
  return fnv1a(t.data(), sizeof(float) * static_cast<std::size_t>(t.size()), h);
}

double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

/// The measured window of a loop: wall time, process CPU time.
class Window {
 public:
  Window() : wall0_(Clock::now()), cpu0_(process_cpu_seconds()) {}
  void stop() {
    wall_s = seconds_since(wall0_);
    cpu_s = process_cpu_seconds() - cpu0_;
  }
  bool more(std::int64_t ops, double seconds) const {
    const double t = seconds_since(wall0_);
    return t < seconds || (ops < kMinOps && t < 3 * seconds);
  }
  double wall_s = 0.0, cpu_s = 0.0;

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

/// Process CPU and wall seconds of each repeated set-up.
struct Setups {
  std::vector<double> cpu_s, wall_s;

  template <class F>
  void time(F&& setup) {
    const auto t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    setup();
    cpu_s.push_back(process_cpu_seconds() - c0);
    wall_s.push_back(seconds_since(t0));
  }
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (const double x : v) out += (out.size() > 1 ? ", " : "") + json_number(x);
  return out + "]";
}

/// Filter-transform cache counters around the measured loop.
struct CacheWindow {
  std::int64_t h0 = iwg::core::filter_transform_hits().value();
  std::int64_t m0 = iwg::core::filter_transform_misses().value();
  double hit_ratio() const {
    const double h = iwg::core::filter_transform_hits().value() - h0;
    const double m = iwg::core::filter_transform_misses().value() - m0;
    return h + m > 0 ? h / (h + m) : 0.0;
  }
};

double p90_or_throw(const std::vector<double>& v, const char* what) {
  const auto q = tail_quantile(v, 0.9);
  if (!q) {
    throw std::runtime_error(std::string("too few ") + what +
                             " for a p90: " + std::to_string(v.size()));
  }
  return *q;
}

/// The end-to-end metrics every workload reports. Wall-clock times are
/// recorded but not gated: on a shared 4-vCPU VM, host CPU steal of 0-24%
/// between runs moved median latency by up to 2.8x and set-up wall time by
/// 2.3x, while process CPU time per item and per set-up moved by about a
/// tenth, so only CPU time can hold a bound of at most 25%. setup_s is
/// therefore the process CPU time of a set-up; work moved into set-up
/// still shows in it.
void add_end_to_end(Result& r, const std::vector<double>& latency_ms,
                    const Setups& setups, double throughput,
                    double cpu_ms_per_item, std::int64_t items) {
  const auto n = static_cast<std::int64_t>(latency_ms.size());
  const auto reps = static_cast<std::int64_t>(setups.cpu_s.size());
  r.fact("setup_samples_cpu_s", json_array(setups.cpu_s));
  r.fact("setup_samples_wall_s", json_array(setups.wall_s));
  r.add("setup_s", median(setups.cpu_s), "s", reps);
  r.add("setup_wall_s", median(setups.wall_s), "s", reps, /*gated=*/false);
  r.add("latency_ms", median(latency_ms), "ms", n, /*gated=*/false);
  r.add("latency_p90_ms", p90_or_throw(latency_ms, "operations"), "ms", n,
        /*gated=*/false);
  r.add("throughput_per_s", throughput, "1/s", items, /*gated=*/false);
  r.add("cpu_ms_per_item", cpu_ms_per_item, "ms", items);
  r.add("ok_share",
        r.attempted > 0
            ? static_cast<double>(r.attempted - r.failed) / r.attempted
            : 0.0,
        "ratio", r.attempted);
  r.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
}

/// Everything the traced run reports. Layers a workload does not exercise
/// keep their zero with zero samples (e.g. backward on inference).
struct PerLayer {
  LayerProbe layers;
  double forward_ms = 0, backward_ms = 0, loss_ms = 0, optim_ms = 0;
  std::int64_t forward_samples = 0, steps = 0;
  double infer_dense_ms = 0, infer_ragged_ms = 0;
  ShapeProbe gamma, transform, strided, deconv, filter_grad;
  double cache_hit_ratio = 0;
  // serve
  std::int64_t requests = 0, batches = 0;
  double submit_us = 0, queue_p50_ms = 0, queue_p90_ms = 0, compute_ms = 0;
  double batch_size = 0, indirect_share = 0, expired_share = 0,
         rejected_share = 0, share_vgg16 = 0, share_resnet18 = 0;
  double lag_p50_ms = 0, lag_max_ms = 0, latency_p99_ms = 0;
  // common, data, env
  double parallel_for_us = 0, parallel_efficiency = 0, arena_mb = 0;
  double data_batch_ms = 0;
  double trace_overhead = 0;
  std::int64_t traced_ops = 0;
};

void add_per_layer(Result& r, const PerLayer& p) {
  const LayerProbe& l = p.layers;
  double replayed = 0;
  for (const double v : l.part_ms) replayed += v;
  for (int i = 0; i < kParts; ++i) {
    const std::string name = std::string("nn.") + part_name(static_cast<Part>(i));
    r.add(name + "_ms", l.part_ms[i], "ms", l.reps);
    r.add(name + "_share", replayed > 0 ? l.part_ms[i] / replayed : 0, "ratio",
          l.reps);
  }
  r.add("nn.coverage_share", l.infer_ms > 0 ? replayed / l.infer_ms : 0,
        "ratio", l.reps);
  r.add("nn.forward_ms", p.forward_ms, "ms", p.forward_samples);
  const std::int64_t train_steps = p.backward_ms > 0 ? p.steps : 0;
  r.add("nn.backward_ms", p.backward_ms, "ms", train_steps);
  r.add("nn.loss_ms", p.loss_ms, "ms", train_steps);
  r.add("nn.optim_ms", p.optim_ms, "ms", train_steps);
  const std::int64_t ragged_reps = p.infer_ragged_ms > 0 ? kProbeReps : 0;
  r.add("nn.infer_dense_ms", p.infer_dense_ms, "ms", ragged_reps);
  r.add("nn.infer_ragged_ms", p.infer_ragged_ms, "ms", ragged_reps);

  r.add("core.gamma_ms", p.gamma.ms, "ms", p.gamma.reps);
  r.add("core.gamma_gflops", p.gamma.gflops(), "GFLOP/s", p.gamma.reps);
  r.add("core.gamma_gbps", p.gamma.gbps(), "GB/s", p.gamma.reps);
  r.add("core.deconv_ms", p.deconv.ms, "ms", p.deconv.reps);
  r.add("core.filter_grad_ms", p.filter_grad.ms, "ms", p.filter_grad.reps);
  r.add("core.filter_transform_ms", p.transform.ms, "ms", p.transform.reps);
  r.add("core.filter_cache_hit_ratio", p.cache_hit_ratio, "ratio", p.steps);
  r.add("reference.strided_ms", p.strided.ms, "ms", p.strided.reps);
  r.add("reference.strided_gflops", p.strided.gflops(), "GFLOP/s",
        p.strided.reps);

  r.add("serve.submit_us", p.submit_us, "us", p.requests > 0 ? p.traced_ops : 0);
  r.add("serve.queue_p50_ms", p.queue_p50_ms, "ms", p.requests);
  r.add("serve.queue_p90_ms", p.queue_p90_ms, "ms", p.requests);
  r.add("serve.compute_ms", p.compute_ms, "ms", p.requests);
  r.add("serve.batch_size", p.batch_size, "count", p.batches);
  r.add("serve.indirect_batch_share", p.indirect_share, "ratio", p.batches);
  r.add("serve.expired_share", p.expired_share, "ratio", p.requests);
  r.add("serve.rejected_share", p.rejected_share, "ratio", p.requests);
  r.add("serve.tenant_share.vgg16", p.share_vgg16, "ratio", p.requests);
  r.add("serve.tenant_share.resnet18", p.share_resnet18, "ratio", p.requests);
  r.add("serve.generator_lag_p50_ms", p.lag_p50_ms, "ms", p.requests);
  r.add("serve.generator_lag_max_ms", p.lag_max_ms, "ms", p.requests);
  r.add("serve.latency_p99_ms", p.latency_p99_ms, "ms", p.requests);

  r.add("common.parallel_for_us", p.parallel_for_us, "us", kParallelForReps);
  r.add("common.parallel_efficiency", p.parallel_efficiency, "ratio", 1);
  r.add("common.arena_high_water_mb", p.arena_mb, "MiB", 1);
  r.add("data.batch_ms", p.data_batch_ms, "ms", train_steps);
  r.add("env.trace_overhead_share", p.trace_overhead, "ratio", p.traced_ops);
  r.fact("flops_and_bytes", "\"computed from the conv shapes\"");
}

/// Probes shared by every workload: replay, Γ, transforms, strided
/// reference, parallel_for and the arena high water.
void probe_model(PerLayer& p, const nn::Model& model, const Replay& replay,
                 const TensorF& x) {
  p.layers = probe_layers(model, replay, x, kProbeReps);
  p.gamma = probe_gamma(p.layers.convs, kProbeReps);
  p.transform = probe_filter_transform(p.layers.convs, kProbeReps);
  p.strided = probe_strided(p.layers.convs, kProbeReps);
}

void probe_common(PerLayer& p, const Window& w) {
  p.parallel_for_us = probe_parallel_for_us(kParallelForReps);
  p.parallel_efficiency = w.cpu_s / (w.wall_s * pool_parties());
  p.arena_mb = static_cast<double>(iwg::ScratchArena::max_high_water()) / 1048576.0;
}

/// Traced loops alternate traced and untraced operations; the overhead is
/// the ratio of their median times.
void trace_overhead(PerLayer& p, const std::vector<double>& op_ms,
                    const std::vector<bool>& traced) {
  std::vector<double> on, off;
  for (std::size_t i = 0; i < op_ms.size(); ++i) {
    (traced[i] ? on : off).push_back(op_ms[i]);
  }
  p.traced_ops = static_cast<std::int64_t>(on.size());
  p.trace_overhead = median(on) / median(off) - 1.0;
}

void check_reference(Result& r, double worst, const std::string& what) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: max relative deviation from the kGemm model %.3g "
                "(tolerance %.0e)",
                what.c_str(), worst, kGemmTolerance);
  r.check("gemm_reference", worst <= kGemmTolerance, buf);
}

nn::ModelConfig model_cfg(std::uint64_t seed, std::int64_t image,
                          std::int64_t base) {
  nn::ModelConfig c;
  c.engine = nn::ConvEngine::kWinograd;
  c.num_classes = 10;
  c.image_size = image;
  c.base_channels = base;
  c.seed = static_cast<unsigned>(derive_seed(seed, 1));
  return c;
}

nn::ModelConfig gemm(nn::ModelConfig c) {
  c.engine = nn::ConvEngine::kGemm;
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// infer_resnet18: closed loop, one caller, Model::infer on ResNet18 (base
// 32, 32×32×3, batch 8) over four seeded batches.

void run_infer_resnet18(const Args& a, Result& r) {
  constexpr std::int64_t kBatch = 8, kImage = 32;
  constexpr int kInputs = 4;
  const nn::ModelConfig cfg = model_cfg(a.seed, kImage, 32);
  std::vector<TensorF> xs;
  std::uint64_t h = fnv1a(nullptr, 0);
  for (int k = 0; k < kInputs; ++k) {
    xs.push_back(random_tensor({kBatch, kImage, kImage, 3},
                               derive_seed(a.seed, 100 + k)));
    h = hash_tensor(xs.back(), h);
  }
  r.fact("input_hash", hex(h));

  Setups setups;
  std::optional<nn::Model> model;
  std::vector<TensorF> first(kInputs);
  for (int i = 0; i < (a.trace ? 1 : kSetupReps); ++i) {
    model.reset();
    setups.time([&] {
      model.emplace(nn::make_resnet(18, cfg));
      first[0] = model->infer(xs[0]);
    });
  }

  std::vector<double> lat;
  std::vector<bool> traced;
  std::vector<std::int64_t> wrong(kInputs, 0), ops_on(kInputs, 0);
  const CacheWindow cache;
  Window w;
  for (std::int64_t i = 0; w.more(i, a.seconds); ++i) {
    const int k = static_cast<int>(i % kInputs);
    traced.push_back(a.trace && i % 2 == 1);
    Spans::get().set_recording(traced.back());
    TensorF y;
    {
      Span span("nn.Model::infer", i);
      const auto t0 = Clock::now();
      y = model->infer(xs[k]);
      lat.push_back(ms_since(t0));
    }
    Spans::get().set_recording(false);
    ++ops_on[k];
    if (first[k].empty()) {
      first[k] = std::move(y);
    } else if (!bitwise_equal(y, first[k])) {
      ++wrong[k];
    }
  }
  w.stop();

  // Every call's output must equal the first call's on that batch bit for
  // bit, and that output must match the kGemm model within tolerance.
  const nn::Model ref = nn::make_resnet(18, gemm(cfg));
  double worst = 0;
  std::int64_t nondet = 0;
  for (int k = 0; k < kInputs; ++k) {
    const double e = rel_error(first[k], ref.infer(xs[k]));
    worst = std::max(worst, e);
    r.failed += e <= kGemmTolerance ? wrong[k] : ops_on[k];
    nondet += wrong[k];
  }
  r.attempted = static_cast<std::int64_t>(lat.size());
  r.check("deterministic", nondet == 0,
          std::to_string(nondet) + " calls differed from the first call");
  check_reference(r, worst, "Model::infer");

  if (!a.trace) {
    const double images = static_cast<double>(lat.size() * kBatch);
    add_end_to_end(r, lat, setups, images / w.wall_s, 1e3 * w.cpu_s / images,
                   static_cast<std::int64_t>(images));
    return;
  }
  PerLayer p;
  p.cache_hit_ratio = cache.hit_ratio();
  p.forward_ms = median(span_ms("nn.Model::infer"));
  p.steps = static_cast<std::int64_t>(lat.size());
  trace_overhead(p, lat, traced);
  p.forward_samples = p.traced_ops;
  probe_common(p, w);
  Spans::get().set_recording(true);
  const Replay replay = Replay::resnet18(cfg);
  probe_model(p, *model, replay, xs[0]);
  Spans::get().set_recording(false);
  r.check("replay_bitwise", p.layers.bitwise,
          "layer-by-layer replay equals Model::infer");
  add_per_layer(r, p);
}

// ---------------------------------------------------------------------------
// train_vgg16: closed loop of SGDM steps on VGG16 (base 16) over a
// CIFAR-like 16×16 set, batch 16 — the paper's Table 5 setting.

namespace {

struct Trainer {
  nn::Model model;
  nn::Sgdm opt{1e-3f, 0.9f};
  std::vector<nn::Param*> params = model.params();

  float step(const iwg::data::Dataset& ds, std::int64_t index,
             std::int64_t batch) {
    const float loss = gradients(ds, index, batch);
    Span span("nn.Sgdm::step");
    opt.step(params);
    opt.zero_grad(params);
    return loss;
  }

  /// Forward, loss and backward of one step; leaves the gradients in place.
  float gradients(const iwg::data::Dataset& ds, std::int64_t index,
                  std::int64_t batch) {
    std::vector<std::int64_t> labels;
    TensorF x;
    {
      Span span("data.Dataset::batch");
      const std::int64_t batches = ds.count() / batch;
      x = ds.batch((index % batches) * batch, batch, labels);
    }
    TensorF logits;
    {
      Span span("nn.Model::forward");
      logits = model.forward(x, /*train=*/true);
    }
    nn::LossResult loss;
    {
      Span span("nn.softmax_cross_entropy");
      loss = nn::softmax_cross_entropy(logits, labels);
    }
    {
      Span span("nn.Model::backward");
      (void)model.backward(loss.dlogits);
    }
    return loss.loss;
  }
};

}  // namespace

void run_train_vgg16(const Args& a, Result& r) {
  constexpr std::int64_t kBatch = 16, kImage = 16, kCount = 8 * kBatch;
  const nn::ModelConfig cfg = model_cfg(a.seed, kImage, 16);
  const iwg::data::Dataset ds = iwg::data::make_cifar_like(
      kCount, static_cast<unsigned>(derive_seed(a.seed, 2)), kImage);
  r.fact("input_hash",
         hex(fnv1a(ds.labels.data(), ds.labels.size() * sizeof(std::int64_t),
                   hash_tensor(ds.images, fnv1a(nullptr, 0)))));

  Setups setups;
  std::optional<Trainer> t;
  std::vector<float> losses;
  for (int i = 0; i < (a.trace ? 1 : kSetupReps); ++i) {
    t.reset();
    setups.time([&] {
      t.emplace(nn::make_vgg(16, cfg));
      losses.assign(1, t->step(ds, 0, kBatch));
    });
  }

  std::vector<double> lat;
  std::vector<bool> traced;
  const CacheWindow cache;
  Window w;
  for (std::int64_t i = 1; w.more(i - 1, a.seconds); ++i) {
    traced.push_back(a.trace && i % 2 == 1);
    Spans::get().set_recording(traced.back());
    {
      Span span("nn.train_step", i);
      const auto t0 = Clock::now();
      losses.push_back(t->step(ds, i, kBatch));
      lat.push_back(ms_since(t0));
    }
    Spans::get().set_recording(false);
  }
  w.stop();
  t.reset();  // the check models below need its memory and cache entries

  // Every loss must be finite. Step 0 starts from the seed's weights, so a
  // fresh model must reproduce its loss bit for bit, and a kGemm model must
  // match that loss and the step's gradients. Later steps are not compared:
  // the two engines' trajectories drift apart as training amplifies
  // rounding differences.
  r.attempted = static_cast<std::int64_t>(lat.size());
  for (const float l : losses) r.failed += std::isfinite(l) ? 0 : 1;
  r.check("finite_loss", r.failed == 0,
          std::to_string(r.failed) + " non-finite losses, last " +
              std::to_string(losses.back()));
  float lw = 0, lg = 0;
  double diff2 = 0, ref2 = 0;
  {
    Trainer wino{nn::make_vgg(16, cfg)}, ref{nn::make_vgg(16, gemm(cfg))};
    lw = wino.gradients(ds, 0, kBatch);
    lg = ref.gradients(ds, 0, kBatch);
    for (std::size_t i = 0; i < wino.params.size(); ++i) {
      const TensorF& gw = wino.params[i]->grad;
      const TensorF& gg = ref.params[i]->grad;
      for (std::int64_t j = 0; j < gw.size(); ++j) {
        diff2 += static_cast<double>(gw[j] - gg[j]) * (gw[j] - gg[j]);
        ref2 += static_cast<double>(gg[j]) * gg[j];
      }
    }
  }
  const double grad_dev = std::sqrt(diff2 / std::max(ref2, 1e-30));
  const bool same_start = lw == losses.front();
  r.check("deterministic", same_start,
          "a fresh model reproduces the timed run's step-0 loss");
  check_reference(r, std::fabs(lw - lg) / std::max(1.0f, std::fabs(lg)),
                  "step-0 training loss");
  char detail[120];
  std::snprintf(detail, sizeof detail,
                "step-0 gradients: L2 deviation from the kGemm model %.3g "
                "(tolerance %.0e)",
                grad_dev, kGradTolerance);
  r.check("gemm_gradients", grad_dev <= kGradTolerance, detail);
  // Every later step builds on step 0, so a wrong step 0 fails them all.
  if (!r.correct) r.failed = r.attempted;
  r.failed = std::min(r.failed, r.attempted);

  if (!a.trace) {
    const double images = static_cast<double>(lat.size() * kBatch);
    add_end_to_end(r, lat, setups, images / w.wall_s, 1e3 * w.cpu_s / images,
                   static_cast<std::int64_t>(images));
    return;
  }
  PerLayer p;
  p.cache_hit_ratio = cache.hit_ratio();
  p.forward_ms = median(span_ms("nn.Model::forward"));
  p.backward_ms = median(span_ms("nn.Model::backward"));
  p.loss_ms = median(span_ms("nn.softmax_cross_entropy"));
  p.optim_ms = median(span_ms("nn.Sgdm::step"));
  p.data_batch_ms = median(span_ms("data.Dataset::batch"));
  p.steps = static_cast<std::int64_t>(lat.size());
  trace_overhead(p, lat, traced);
  p.forward_samples = p.traced_ops;
  probe_common(p, w);
  Spans::get().set_recording(true);
  std::vector<std::int64_t> labels;
  const nn::Model fresh = nn::make_vgg(16, cfg);
  const Replay replay = Replay::vgg16(cfg);  // owns the probed weights
  probe_model(p, fresh, replay, ds.batch(0, kBatch, labels));
  p.deconv = probe_deconv(p.layers.convs, kProbeReps);
  p.filter_grad = probe_filter_grad(p.layers.convs, kProbeReps);
  Spans::get().set_recording(false);
  r.check("replay_bitwise", p.layers.bitwise,
          "layer-by-layer replay equals Model::infer");
  add_per_layer(r, p);
}

// ---------------------------------------------------------------------------
// serve_mixed: open loop into one FleetScheduler (1 worker, EDF, max_wait
// 2 ms). Bursts of 8 requests start at Poisson times, 12.5 bursts/s
// (100 req/s); each request is vgg16 (32×32, weight 2) or resnet18
// (8/12/16 px, weight 1) with equal odds and a 200 ms deadline. Latency
// runs from the due time.
//
// Bursts rather than evenly spread arrivals build queues at moderate mean
// load, so admission, weighted-fair queueing, batch assembly and ragged
// dispatch all do work.

namespace {

constexpr double kBurstsPerSecond = 12.5;
constexpr std::size_t kBurst = 8;
constexpr double kDeadlineMs = 200.0;
/// p99 needs 10 samples beyond it.
constexpr std::size_t kMinRequests = 1000;
const char* const kTenant[2] = {"vgg16", "resnet18"};

struct Arrival {
  double due_s = 0;
  int tenant = 0;
  std::int64_t size = 0;
};

/// Poisson burst starts conditioned on their count: given N arrivals in
/// [0, T), a Poisson process places them as N sorted uniform draws. Fixing
/// N = rate · T keeps the offered load the same on every seed, so seeds
/// vary only where bursts cluster.
std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds) {
  iwg::Rng rng(derive_seed(seed, 7));
  const auto bursts = static_cast<std::size_t>(std::max<double>(
      std::ceil(kBurstsPerSecond * seconds),
      std::ceil(static_cast<double>(kMinRequests) / kBurst)));
  const double span_s = static_cast<double>(bursts) / kBurstsPerSecond;
  std::vector<double> starts(bursts);
  for (double& t : starts) t = rng.uniform_double(0.0, span_s);
  std::sort(starts.begin(), starts.end());
  std::vector<Arrival> out;
  for (const double t : starts) {
    for (std::size_t j = 0; j < kBurst; ++j) {
      Arrival arr;
      arr.due_s = t;
      arr.tenant = static_cast<int>(rng() & 1);
      arr.size = arr.tenant == 0 ? 32 : 8 + 4 * static_cast<std::int64_t>(rng() % 3);
      out.push_back(arr);
    }
  }
  return out;
}

/// Image of request i, made on demand so the client holds one burst at a
/// time; `batch1` gives the N = 1 tensor Model::infer takes.
TensorF request_image(std::uint64_t seed, const Arrival& s, std::size_t i,
                      bool batch1 = false) {
  std::vector<std::int64_t> dims{s.size, s.size, 3};
  if (batch1) dims.insert(dims.begin(), 1);
  return random_tensor(dims, derive_seed(seed, 1000 + i));
}

nn::ModelConfig tenant_cfg(std::uint64_t seed, int tenant) {
  return tenant == 0 ? model_cfg(seed, 32, 16) : model_cfg(seed, 16, 8);
}

nn::Model make_tenant_model(const nn::ModelConfig& cfg, int tenant) {
  return tenant == 0 ? nn::make_vgg(16, cfg) : nn::make_resnet(18, cfg);
}

std::unique_ptr<serve::FleetScheduler> make_fleet(std::uint64_t seed) {
  serve::FleetConfig fc;
  fc.workers = 1;
  fc.max_wait = std::chrono::microseconds(2000);
  fc.order = serve::TenantOrder::kEdf;
  auto fleet = std::make_unique<serve::FleetScheduler>(fc);
  for (int t = 0; t < 2; ++t) {
    serve::TenantConfig tc;
    tc.id = kTenant[t];
    tc.weight = t == 0 ? 2.0 : 1.0;
    tc.default_deadline = std::chrono::microseconds(
        static_cast<std::int64_t>(kDeadlineMs * 1000));
    tc.image_h = tc.image_w = t == 0 ? 32 : 16;
    tc.max_batch = kBurst;
    fleet->add_tenant(make_tenant_model(tenant_cfg(seed, t), t), tc);
  }
  return fleet;
}

}  // namespace

void run_serve_mixed(const Args& a, Result& r) {
  const std::vector<Arrival> sched = make_schedule(a.seed, a.seconds);
  std::uint64_t sh = fnv1a(nullptr, 0), ih = fnv1a(nullptr, 0);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Arrival& s = sched[i];
    const auto due_ns = static_cast<std::int64_t>(std::llround(s.due_s * 1e9));
    const std::int64_t fields[3] = {due_ns, s.tenant, s.size};
    sh = fnv1a(fields, sizeof fields, sh);
    ih = hash_tensor(request_image(a.seed, s, i), ih);
  }
  r.fact("schedule_hash", hex(sh));
  r.fact("input_hash", hex(ih));
  r.fact("schedule_requests", std::to_string(sched.size()));

  Setups setups;
  std::unique_ptr<serve::FleetScheduler> fleet;
  for (int i = 0; i < (a.trace ? 1 : kSetupReps); ++i) {
    fleet.reset();
    setups.time([&] { fleet = make_fleet(a.seed); });
  }

  const std::size_t n = sched.size();
  std::vector<std::future<serve::Response>> futs(n);
  std::vector<Clock::time_point> submitted(n);
  std::vector<double> lag_ms(n), submit_us(n);
  std::vector<bool> traced(n);
  const CacheWindow cache;
  Window w;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<TensorF> burst(kBurst);
  for (std::size_t i = 0; i < n; ++i) {
    // A burst's requests share one due time; make its images before it.
    if (i % kBurst == 0) {
      for (std::size_t j = 0; j < kBurst; ++j) {
        burst[j] = request_image(a.seed, sched[i + j], i + j);
      }
    }
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(sched[i].due_s));
    std::this_thread::sleep_until(due);
    traced[i] = a.trace && (i / kBurst) % 2 == 1;
    Spans::get().set_recording(traced[i]);
    {
      Span span("serve.FleetScheduler::submit", static_cast<std::int64_t>(i));
      submitted[i] = Clock::now();
      lag_ms[i] = 1e3 * std::chrono::duration<double>(submitted[i] - due).count();
      const auto budget = std::chrono::microseconds(
          static_cast<std::int64_t>((kDeadlineMs - lag_ms[i]) * 1e3));
      futs[i] = fleet->submit(kTenant[sched[i].tenant],
                              std::move(burst[i % kBurst]),
                              serve::Deadline::after(budget));
      submit_us[i] = 1e3 * ms_since(submitted[i]);
    }
    Spans::get().set_recording(false);
  }
  std::vector<serve::Response> resp(n);
  std::vector<double> lat_ms(n);
  Clock::time_point last_done = start;
  for (std::size_t i = 0; i < n; ++i) {
    resp[i] = futs[i].get();
    lat_ms[i] = lag_ms[i] + resp[i].latency_us / 1e3;
    if (resp[i].ok()) {
      last_done = std::max(last_done,
                           submitted[i] + std::chrono::microseconds(
                                              static_cast<std::int64_t>(resp[i].latency_us)));
    }
  }
  w.stop();
  fleet->stop(/*drain=*/true);
  const serve::FleetScheduler::Stats st = fleet->stats();
  fleet.reset();  // frees its models' filter-cache entries before the probes

  // Every served output must equal Model::infer on that image alone, bit
  // for bit (the dispatch contract), and the first outputs of each tenant
  // must match the kGemm model within tolerance.
  const nn::Model ref[2] = {make_tenant_model(tenant_cfg(a.seed, 0), 0),
                            make_tenant_model(tenant_cfg(a.seed, 1), 1)};
  const nn::Model ref_gemm[2] = {
      make_tenant_model(gemm(tenant_cfg(a.seed, 0)), 0),
      make_tenant_model(gemm(tenant_cfg(a.seed, 1)), 1)};
  std::int64_t ok = 0, late = 0, mismatched = 0;
  std::size_t gemm_checked[2] = {0, 0};
  double worst = 0;
  std::vector<double> queue_ms, compute_ms;
  for (std::size_t i = 0; i < n; ++i) {
    if (!resp[i].ok()) continue;
    const int t = sched[i].tenant;
    const TensorF x = request_image(a.seed, sched[i], i, /*batch1=*/true);
    const bool same = bitwise_equal(resp[i].output, ref[t].infer(x));
    if (gemm_checked[t] < kBurst) {
      ++gemm_checked[t];
      worst = std::max(worst, rel_error(resp[i].output, ref_gemm[t].infer(x)));
    }
    const bool in_time = lat_ms[i] <= kDeadlineMs;
    mismatched += same ? 0 : 1;
    late += in_time ? 0 : 1;
    if (same && in_time) ++ok;
    queue_ms.push_back(resp[i].queue_us / 1e3);
    compute_ms.push_back((resp[i].latency_us - resp[i].queue_us) / 1e3);
  }
  r.attempted = static_cast<std::int64_t>(n);
  r.failed = r.attempted - ok;
  if (worst > kGemmTolerance) r.failed = r.attempted;
  r.check("dispatch_bitwise", mismatched == 0,
          std::to_string(mismatched) + " served outputs differ from "
          "Model::infer on the image alone");
  check_reference(r, worst, "served outputs");
  r.check("all_resolved", st.all_resolved(), "every future resolved");
  r.fact("serve.late", std::to_string(late));

  if (!a.trace) {
    const double wall = std::chrono::duration<double>(last_done - start).count();
    add_end_to_end(r, lat_ms, setups, static_cast<double>(ok) / wall,
                   1e3 * w.cpu_s / static_cast<double>(n), r.attempted);
    return;
  }
  PerLayer p;
  p.cache_hit_ratio = cache.hit_ratio();
  p.requests = r.attempted;
  p.batches = st.total.batches;
  std::vector<double> traced_submit_us;
  for (std::size_t i = 0; i < n; ++i) {
    if (traced[i]) traced_submit_us.push_back(submit_us[i]);
  }
  p.submit_us = median(traced_submit_us);
  p.queue_p50_ms = median(queue_ms);
  p.queue_p90_ms = p90_or_throw(queue_ms, "served requests");
  p.compute_ms = median(compute_ms);
  p.batch_size = st.total.batches > 0 ? static_cast<double>(st.total.completed) /
                                            static_cast<double>(st.total.batches)
                                      : 0.0;
  p.indirect_share = st.total.batches > 0
                         ? static_cast<double>(st.total.indirect_batches) /
                               static_cast<double>(st.total.batches)
                         : 0.0;
  p.expired_share = static_cast<double>(st.total.expired) / r.attempted;
  p.rejected_share = static_cast<double>(st.total.rejected) / r.attempted;
  const double done = std::max<double>(1, static_cast<double>(st.total.completed));
  p.share_vgg16 = st.tenants.at(kTenant[0]).completed / done;
  p.share_resnet18 = st.tenants.at(kTenant[1]).completed / done;
  p.lag_p50_ms = median(lag_ms);
  p.lag_max_ms = *std::max_element(lag_ms.begin(), lag_ms.end());
  const auto p99 = tail_quantile(lat_ms, 0.99);
  if (!p99) throw std::runtime_error("too few requests for a p99");
  p.latency_p99_ms = *p99;
  p.steps = r.attempted;
  // The spans sit around submit, so that is where tracing can cost.
  trace_overhead(p, submit_us, traced);
  probe_common(p, w);

  // Per model call: the mean over one batch of 8 on each tenant.
  Spans::get().set_recording(true);
  const Replay replays[2] = {Replay::vgg16(tenant_cfg(a.seed, 0)),
                             Replay::resnet18(tenant_cfg(a.seed, 1))};
  PerLayer tp[2];
  for (int t = 0; t < 2; ++t) {
    const std::int64_t s = t == 0 ? 32 : 16;
    probe_model(tp[t], ref[t], replays[t],
                random_tensor({kBurst, s, s, 3}, derive_seed(a.seed, 50 + t)));
  }
  p.layers = tp[0].layers;
  p.layers.bitwise = tp[0].layers.bitwise && tp[1].layers.bitwise;
  p.layers.infer_ms = (tp[0].layers.infer_ms + tp[1].layers.infer_ms) / 2;
  for (int i = 0; i < kParts; ++i) {
    p.layers.part_ms[i] = (tp[0].layers.part_ms[i] + tp[1].layers.part_ms[i]) / 2;
  }
  p.forward_ms = p.layers.infer_ms;
  p.forward_samples = kProbeReps;
  auto avg = [](const ShapeProbe& x, const ShapeProbe& y) {
    ShapeProbe m;
    m.ms = (x.ms + y.ms) / 2;
    m.flops = (x.flops + y.flops) / 2;
    m.bytes = (x.bytes + y.bytes) / 2;
    m.reps = std::max(x.reps, y.reps);
    return m;
  };
  p.gamma = avg(tp[0].gamma, tp[1].gamma);
  p.transform = avg(tp[0].transform, tp[1].transform);
  p.strided = avg(tp[0].strided, tp[1].strided);

  // One batch of 8 resnet18 requests: all 16 px (dense) against the
  // schedule's first 8 resnet18 images (ragged, mixed 8/12/16 px).
  const TensorF dense = random_tensor({kBurst, 16, 16, 3}, derive_seed(a.seed, 51));
  std::vector<TensorF> ragged;
  for (std::size_t i = 0; i < n && ragged.size() < kBurst; ++i) {
    if (sched[i].tenant != 1) continue;
    ragged.push_back(request_image(a.seed, sched[i], i, /*batch1=*/true));
  }
  std::vector<double> dense_ms, ragged_ms;
  for (int i = 0; i < kProbeReps; ++i) {
    {
      Span span("nn.Model::infer");
      const auto t0 = Clock::now();
      (void)ref[1].infer(dense);
      dense_ms.push_back(ms_since(t0));
    }
    Span span("nn.Model::infer_ragged");
    const auto t0 = Clock::now();
    (void)ref[1].infer_ragged(ragged);
    ragged_ms.push_back(ms_since(t0));
  }
  Spans::get().set_recording(false);
  p.infer_dense_ms = median(dense_ms);
  p.infer_ragged_ms = median(ragged_ms);
  r.check("replay_bitwise", p.layers.bitwise,
          "layer-by-layer replay equals Model::infer");
  add_per_layer(r, p);
}

}  // namespace perfbench

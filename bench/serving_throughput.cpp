// Serving throughput harness: micro-batching must pay for its latency cost.
// Under equal offered load, one model served with batch cap >= 8 must
// sustain >= 2x the requests/s of batch-size-1 dispatch, and batched outputs
// must be bit-identical to per-request inference. Experiments 1 and 3-5
// serve the model the way every single-model caller does: as the only
// tenant of a FleetScheduler with one worker.
//
// Six experiments:
//   1. Parity — every image served through a cap-8 one-tenant fleet matches
//      a per-request Model::infer on an identically-seeded model, bitwise.
//      (Both sides use default §5.5 plans — plan_for() is batch-size
//      independent, so batching cannot change the arithmetic.)
//   2. Device-modeled dispatch (the 2x gate) — the served model's conv
//      stack profiled on the RTX 3060 Ti profile at micro-batch 1 vs 8.
//      This is where the paper's serving argument lives: at batch 1 the Γ
//      grid has a handful of tiles and the GPU is latency-bound, so a batch
//      of 8 costs barely more than a batch of 1 and requests/s scale almost
//      linearly with the cap. Deterministic (sampled-counter model), so it
//      gates in smoke mode too.
//   3. Closed loop (host wall clock) — C clients, each with one outstanding
//      request, drive a cap-1 and a cap-8 fleet to saturation. On a
//      multi-core host batching wins by filling the thread pool; on a
//      single-core box per-image compute serializes either way and only the
//      per-dispatch overhead amortizes, so the wall-clock 2x gate applies
//      only when hardware_concurrency >= 4 (and never in smoke mode).
//   4. Open loop — a fixed arrival rate (fractions of the measured cap-8
//      capacity) with per-request deadlines; reports achieved rate, p50/p99
//      latency, and how admission control + deadline shedding degrade.
//   5. Mixed-shape traffic (the ragged-batching 3x gate) — arrivals drawn
//      from a realistic multi-resolution distribution (8px 50%, 6px 20%,
//      10px 15%, 12px 10%, 16px 5%) are served by the frozen
//      split-on-mismatch baseline below (batch-1/2 ping-pong, every
//      dispatch padded to the cap) and by the fleet (one ragged Γ dispatch
//      per mixed batch). The deterministic gate is device-modeled:
//      replaying the same arrival sequence through both batching policies,
//      costed with profile_conv2d, the indirect schedule must be >= 3x
//      cheaper. Wall-clock closed-loop rps for both is gated >= 3x too (on
//      >= 4 cores, like experiment 3), plus per-image bitwise parity.
//   6. Multi-tenant fleet — three tenants (weights 4/2/1) share one
//      FleetScheduler at 2x the measured aggregate capacity. Fairness: each
//      tenant's completion share must track weight / Σ weights (max relative
//      deviation <= 15% in full mode); per-tenant p50/p99 show the weighted
//      service order. Deadlines: the same overloaded traffic with a tight
//      deadline on a quarter of the requests is replayed under FIFO and EDF
//      intra-tenant ordering — FIFO must miss >= 2x as many tight deadlines
//      as EDF (full mode), quantifying what EDF buys under overload.
//
//   build/bench/serving_throughput [--smoke] [--json <path>]
//
// Results land in BENCH_serving.json (see --json) as an array with one run
// record, matching the array-of-runs layout of BENCH_host_hotpath.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/conv_api.hpp"
#include "gpusim/device.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "serve/serve.hpp"

namespace {

using namespace iwg;
using namespace std::chrono_literals;

constexpr std::int64_t kImage = 8;
constexpr unsigned kModelSeed = 77;

/// The served model: three Winograd convs + head on 8x8x3 inputs — the
/// latency-sensitive end of the serving spectrum, where per-dispatch fixed
/// costs (worker wakeup, plan/filter-cache lookups, per-layer dispatch) are
/// a large share of each request and micro-batching pays the most. Built
/// fresh (same seed) wherever a bit-identical reference is needed. No
/// autotuning anywhere: tuned plans may legally differ per batch size, and
/// this harness asserts bitwise parity across batch sizes.
nn::Model make_model() {
  Rng rng(kModelSeed);
  nn::Model m;
  m.add(std::make_unique<nn::Conv2D>(3, 8, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "conv1"));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::Conv2D>(8, 8, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "conv2"));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::MaxPool2x2>());
  m.add(std::make_unique<nn::Conv2D>(8, 16, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "conv3"));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::GlobalAvgPool>());
  m.add(std::make_unique<nn::Linear>(16, 10, rng, "fc"));
  return m;
}

constexpr const char* kTenant = "model";

/// The served model as the only tenant of a fleet with one worker (one
/// dispatcher isolates the batching effect).
std::unique_ptr<serve::FleetScheduler> serve_one(std::size_t max_batch) {
  serve::FleetConfig fc;
  fc.workers = 1;
  fc.max_wait = 2ms;
  fc.idle_wait = 5ms;
  auto fleet = std::make_unique<serve::FleetScheduler>(fc);
  serve::TenantConfig tc;
  tc.id = kTenant;
  tc.image_h = kImage;
  tc.image_w = kImage;
  tc.channels = 3;
  tc.max_batch = max_batch;
  tc.queue_capacity = 256;
  fleet->add_tenant(make_model(), tc);
  return fleet;
}

TensorF random_image(Rng& rng, std::int64_t hw = kImage) {
  TensorF img({hw, hw, 3});
  img.fill_uniform(rng, -1.0f, 1.0f);
  return img;
}

TensorF infer_single(const nn::Model& m, const TensorF& img) {
  TensorF x({1, img.dim(0), img.dim(1), img.dim(2)});
  std::memcpy(x.data(), img.data(),
              static_cast<std::size_t>(img.size()) * sizeof(float));
  return m.infer(x);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// ---------------------------------------------------------------------------
// Experiment 1: bitwise parity, batched vs per-request.

/// Serves `images` through a cap-8 one-tenant fleet and checks each output
/// against a per-image Model::infer at its own shape, bitwise.
bool check_parity(const std::vector<TensorF>& images) {
  const nn::Model reference = make_model();
  auto fleet = serve_one(8);
  std::vector<std::future<serve::Response>> futs;
  for (const TensorF& img : images) futs.push_back(fleet->submit(kTenant, img));
  bool ok = true;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const serve::Response r = futs[i].get();
    if (!r.ok()) return false;
    const TensorF want = infer_single(reference, images[i]);
    ok = ok && r.output.size() == want.size() &&
         std::memcmp(r.output.data(), want.data(),
                     static_cast<std::size_t>(want.size()) * sizeof(float)) ==
             0;
  }
  fleet->stop();
  return ok && fleet->stats().all_resolved();
}

// ---------------------------------------------------------------------------
// Experiment 2: device-modeled dispatch throughput.

/// The served model's unit-stride conv stack as ConvShapes at batch n for
/// an hw×hw input image.
std::vector<ConvShape> model_conv_shapes(std::int64_t n,
                                         std::int64_t hw = kImage) {
  auto mk = [n](std::int64_t hw2, std::int64_t ic, std::int64_t oc) {
    ConvShape s;
    s.n = n;
    s.ih = hw2;
    s.iw = hw2;
    s.ic = ic;
    s.oc = oc;
    s.fh = 3;
    s.fw = 3;
    s.ph = 1;
    s.pw = 1;
    s.validate();
    return s;
  };
  return {mk(hw, 3, 8), mk(hw, 8, 8), mk(hw / 2, 8, 16)};
}

/// Modeled device time for the conv stack at (hw, n) — memoized; the mixed
/// replay asks for the same handful of (size, batch) points thousands of
/// times.
double stack_time(std::int64_t hw, std::int64_t n,
                  const sim::DeviceProfile& dev) {
  static std::map<std::pair<std::int64_t, std::int64_t>, double> memo;
  const auto key = std::make_pair(hw, n);
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  double total_s = 0.0;
  for (const ConvShape& s : model_conv_shapes(n, hw)) {
    total_s += core::profile_conv2d(s, dev, core::plan_for(s)).time_s;
  }
  memo.emplace(key, total_s);
  return total_s;
}

/// Modeled requests/s when every dispatch carries `n` images: n over the
/// summed per-layer kernel times on `dev` (default §5.5 plans, the same
/// plans the served model executes).
double modeled_dispatch_rps(std::int64_t n, const sim::DeviceProfile& dev) {
  const double total_s = stack_time(kImage, n, dev);
  return total_s > 0.0 ? static_cast<double>(n) / total_s : 0.0;
}

// ---------------------------------------------------------------------------
// Experiment 3: closed-loop saturation throughput.

struct ClosedLoopResult {
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
  std::int64_t indirect_batches = 0;
  bool all_resolved = false;
};

using SubmitFn = std::function<std::future<serve::Response>(TensorF)>;

/// `clients` threads, each keeping exactly one request outstanding — the
/// classic closed loop, so every server sees identical offered concurrency.
/// Image sizes come from `draw_hw` (per-client generator). Fills rps and
/// the latency percentiles.
ClosedLoopResult drive_closed_loop(
    const SubmitFn& submit, int clients, int per_client, unsigned seed,
    const std::function<std::int64_t(Rng&)>& draw_hw) {
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  Timer wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + static_cast<unsigned>(c));
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const std::int64_t hw = draw_hw(rng);
        const serve::Response r = submit(random_image(rng, hw)).get();
        if (r.ok()) mine.push_back(r.latency_us);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double secs = wall.seconds();

  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  ClosedLoopResult res;
  res.rps = static_cast<double>(all.size()) / secs;
  res.p50_us = percentile(all, 0.50);
  res.p99_us = percentile(all, 0.99);
  return res;
}

/// Closed loop through a one-tenant fleet at batch cap `max_batch`.
ClosedLoopResult run_closed_loop(
    std::size_t max_batch, int clients, int per_client, unsigned seed,
    const std::function<std::int64_t(Rng&)>& draw_hw) {
  auto fleet = serve_one(max_batch);
  ClosedLoopResult res = drive_closed_loop(
      [&](TensorF img) { return fleet->submit(kTenant, std::move(img)); },
      clients, per_client, seed, draw_hw);
  fleet->stop();
  const serve::FleetScheduler::TenantStats stats = fleet->stats().total;
  res.mean_batch = stats.batches > 0 ? static_cast<double>(stats.completed) /
                                           static_cast<double>(stats.batches)
                                     : 0.0;
  res.indirect_batches = stats.indirect_batches;
  res.all_resolved = stats.all_resolved();
  return res;
}

std::int64_t fixed_size(Rng&) { return kImage; }

// ---------------------------------------------------------------------------
// Experiment 4: open-loop offered load.

struct OpenLoopResult {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t expired = 0;
};

/// One generator thread submits at a fixed rate (deadline 100 ms) for
/// `duration`; overload shows up as rejections/expiries, not client stall.
OpenLoopResult run_open_loop(double offered_rps, std::chrono::milliseconds
                                                     duration) {
  auto fleet = serve_one(8);
  const auto interval = std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double>(1.0 / offered_rps));
  const int total = static_cast<int>(
      offered_rps * std::chrono::duration<double>(duration).count());

  Rng rng(9);
  std::vector<std::future<serve::Response>> futs;
  futs.reserve(static_cast<std::size_t>(total));
  Timer wall;
  auto next = serve::Clock::now();
  for (int i = 0; i < total; ++i) {
    futs.push_back(fleet->submit(kTenant, random_image(rng),
                                 serve::Deadline::after(100ms)));
    next += interval;
    std::this_thread::sleep_until(next);
  }
  OpenLoopResult res;
  res.offered_rps = offered_rps;
  std::vector<double> lat;
  for (auto& f : futs) {
    const serve::Response r = f.get();
    if (r.ok()) {
      ++res.completed;
      lat.push_back(r.latency_us);
    } else if (r.status == serve::Status::kRejected) {
      ++res.rejected;
    } else if (r.status == serve::Status::kExpired) {
      ++res.expired;
    }
  }
  const double secs = wall.seconds();
  fleet->stop();
  res.achieved_rps = static_cast<double>(res.completed) / secs;
  res.p50_us = percentile(lat, 0.50);
  res.p99_us = percentile(lat, 0.99);
  return res;
}

// ---------------------------------------------------------------------------
// Experiment 5: mixed-shape traffic — split-on-mismatch vs indirect.

/// Realistic multi-resolution serving mix (even sizes — the model has a
/// MaxPool2x2): 8px 50%, 6px 20%, 10px 15%, 12px 10%, 16px 5%.
std::int64_t draw_mixed_size(Rng& rng) {
  static constexpr std::int64_t kDist[20] = {8, 8, 8,  8,  8,  8,  8,
                                             8, 8, 8,  6,  6,  6,  6,
                                             10, 10, 10, 12, 12, 16};
  return kDist[rng.below(20)];
}

std::vector<std::int64_t> mixed_arrival_sequence(int n, unsigned seed = 2024) {
  Rng rng(seed);
  std::vector<std::int64_t> seq;
  seq.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) seq.push_back(draw_mixed_size(rng));
  return seq;
}

struct MixedReplay {
  double split_s = 0.0;
  double indirect_s = 0.0;
  double speedup = 0.0;
  int split_dispatches = 0;
  int indirect_dispatches = 0;
};

/// Deterministic replay of one arrival sequence through both batching
/// policies, costed on the device model. Split (the frozen baseline):
/// the queue is cut at every shape mismatch, each cut padded to the cap —
/// interleaved traffic degenerates to short runs that still pay full
/// batch-8 dispatches. Indirect: each window of max_batch consecutive
/// arrivals ships as ONE ragged dispatch; the merged grid has a full
/// batch's worth of tile rows, so per-image cost is the full-batch
/// amortized cost of its own shape (that occupancy is exactly what
/// experiment 2 measures) and no pad slots exist.
MixedReplay modeled_mixed(const std::vector<std::int64_t>& seq,
                           std::size_t max_batch,
                           const sim::DeviceProfile& dev) {
  MixedReplay m;
  for (std::size_t i = 0; i < seq.size();) {
    std::size_t j = i;
    while (j < seq.size() && seq[j] == seq[i] && j - i < max_batch) ++j;
    m.split_s += stack_time(seq[i], static_cast<std::int64_t>(max_batch), dev);
    ++m.split_dispatches;
    i = j;
  }
  for (std::size_t i = 0; i < seq.size(); i += max_batch) {
    const std::size_t end = std::min(i + max_batch, seq.size());
    for (std::size_t k = i; k < end; ++k) {
      m.indirect_s += stack_time(seq[k], static_cast<std::int64_t>(max_batch),
                                 dev) /
                      static_cast<double>(max_batch);
    }
    ++m.indirect_dispatches;
  }
  m.speedup = m.indirect_s > 0.0 ? m.split_s / m.indirect_s : 0.0;
  return m;
}

/// Frozen baseline: the retired split-on-mismatch batcher, kept bench-local
/// (the way host_hotpath keeps its old engines) so the wall-clock ragged
/// gate keeps measuring against it. One worker waits for a first request,
/// holds the batch open up to max_wait or until the cap is queued, pops the
/// longest same-shape prefix of the queue, zero-pads its own batch tensor
/// to the cap so every dispatch has the tuned geometry, and calls
/// Model::infer. No deadlines and no admission limit: the closed loop needs
/// neither.
class SplitBaseline {
 public:
  SplitBaseline(nn::Model model, std::size_t max_batch)
      : model_(std::move(model)), cap_(max_batch) {
    TensorF warm({static_cast<std::int64_t>(cap_), kImage, kImage, 3});
    (void)model_.infer(warm);
    worker_ = std::thread([this] { loop(); });
  }
  ~SplitBaseline() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  std::future<serve::Response> submit(TensorF image) {
    serve::Request r;
    r.input = std::move(image);
    r.enqueue_time = serve::Clock::now();
    std::future<serve::Response> fut = r.promise.get_future();
    {
      std::lock_guard lock(mu_);
      q_.push_back(std::move(r));
    }
    cv_.notify_one();
    return fut;
  }

  std::int64_t batches() const { return batches_.load(); }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || !q_.empty(); });
      if (q_.empty()) return;  // stopping and drained
      cv_.wait_until(lock, serve::Clock::now() + 2ms,
                     [&] { return stop_ || q_.size() >= cap_; });
      std::vector<serve::Request> batch;
      while (!q_.empty() && batch.size() < cap_ &&
             (batch.empty() ||
              batch.front().input.same_shape(q_.front().input))) {
        batch.push_back(std::move(q_.front()));
        q_.pop_front();
      }
      lock.unlock();
      run(batch);
      lock.lock();
    }
  }

  void run(std::vector<serve::Request>& batch) {
    const TensorF& first = batch.front().input;
    const std::int64_t elems = first.size();
    TensorF xb({static_cast<std::int64_t>(cap_), first.dim(0), first.dim(1),
                first.dim(2)});
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::memcpy(xb.data() + static_cast<std::int64_t>(i) * elems,
                  batch[i].input.data(),
                  static_cast<std::size_t>(elems) * sizeof(float));
    }
    const TensorF y = model_.infer(xb);
    const std::int64_t per = y.size() / y.dim(0);
    const auto done = serve::Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      serve::Response resp;
      resp.batch_size = static_cast<std::int64_t>(batch.size());
      resp.output.reset({1, per});
      std::memcpy(resp.output.data(),
                  y.data() + static_cast<std::int64_t>(i) * per,
                  static_cast<std::size_t>(per) * sizeof(float));
      resp.latency_us = std::chrono::duration<double, std::micro>(
                            done - batch[i].enqueue_time)
                            .count();
      batch[i].promise.set_value(std::move(resp));
    }
    ++batches_;
  }

  const nn::Model model_;
  const std::size_t cap_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<serve::Request> q_;
  bool stop_ = false;
  std::atomic<std::int64_t> batches_{0};
  std::thread worker_;
};

/// Mixed closed loop through the frozen split baseline.
ClosedLoopResult run_split_baseline(int clients, int per_client) {
  SplitBaseline split(make_model(), 8);
  ClosedLoopResult res = drive_closed_loop(
      [&](TensorF img) { return split.submit(std::move(img)); }, clients,
      per_client, 500, draw_mixed_size);
  const std::int64_t batches = split.batches();
  res.mean_batch = batches > 0 ? static_cast<double>(clients) * per_client /
                                     static_cast<double>(batches)
                               : 0.0;
  return res;
}

// ---------------------------------------------------------------------------
// Experiment 6: multi-tenant fleet — weighted-fair shares under 2x overload,
// and FIFO-vs-EDF deadline-miss rates on the same overloaded traffic.

constexpr double kFleetWeights[3] = {4.0, 2.0, 1.0};
constexpr const char* kFleetIds[3] = {"gold", "silver", "bronze"};
constexpr double kFleetWeightSum = 7.0;

serve::FleetConfig fleet_config(serve::TenantOrder order) {
  serve::FleetConfig fc;
  fc.workers = 2;
  fc.max_wait = 2ms;
  fc.idle_wait = 5ms;
  fc.order = order;
  return fc;
}

serve::TenantConfig fleet_tenant(int t) {
  serve::TenantConfig cfg;
  cfg.id = kFleetIds[t];
  cfg.weight = kFleetWeights[t];
  cfg.image_h = kImage;
  cfg.image_w = kImage;
  cfg.channels = 3;
  cfg.max_batch = 4;
  // The overload experiments never want admission in the way: the queue
  // absorbs the 2x backlog so shares/misses are pure scheduling outcomes.
  cfg.queue_capacity = 1u << 16;
  return cfg;
}

/// Measured aggregate capacity of the 2-worker fleet on this model: one
/// tenant, a burst of `n` requests, capacity = n / wall seconds.
double measure_fleet_capacity(int n) {
  serve::FleetScheduler fleet(fleet_config(serve::TenantOrder::kEdf));
  fleet.add_tenant(make_model(), fleet_tenant(0));
  Rng rng(31);
  std::vector<std::future<serve::Response>> futs;
  futs.reserve(static_cast<std::size_t>(n));
  Timer wall;
  for (int i = 0; i < n; ++i) {
    futs.push_back(fleet.submit(kFleetIds[0], random_image(rng)));
  }
  for (auto& f : futs) f.get();
  const double secs = wall.seconds();
  fleet.stop();
  return secs > 0.0 ? static_cast<double>(n) / secs : 0.0;
}

struct FleetTenantResult {
  std::int64_t window_completed = 0;
  double share = 0.0;
  double weight_share = 0.0;
  double rel_dev = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct FleetFairness {
  double capacity_rps = 0.0;
  double offered_rps = 0.0;
  FleetTenantResult tenants[3];
  double max_rel_dev = 0.0;
  bool all_resolved = false;
};

/// Three generator threads pace submissions at 2x the measured aggregate
/// capacity, split evenly — every tenant's arrivals exceed its weighted-fair
/// share, so all three stay backlogged and the completion shares are the
/// scheduler's choice alone. Shares are measured over the window from 25%
/// of the run (past the ramp) to the end of offered load; pacing is by
/// absolute send times, so a late wakeup self-corrects instead of drifting.
FleetFairness run_fleet_fairness(double capacity_rps,
                                 std::chrono::milliseconds duration) {
  FleetFairness res;
  res.capacity_rps = capacity_rps;
  res.offered_rps = 2.0 * capacity_rps;
  serve::FleetScheduler fleet(fleet_config(serve::TenantOrder::kEdf));
  for (int t = 0; t < 3; ++t) fleet.add_tenant(make_model(), fleet_tenant(t));

  const double per_rate = res.offered_rps / 3.0;
  const auto interval = std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double>(1.0 / per_rate));
  const int per_total = static_cast<int>(
      per_rate * std::chrono::duration<double>(duration).count());
  std::vector<std::vector<std::future<serve::Response>>> futs(3);
  std::vector<std::thread> gens;
  for (int t = 0; t < 3; ++t) {
    gens.emplace_back([&, t] {
      Rng rng(static_cast<unsigned>(900 + t));
      auto& mine = futs[static_cast<std::size_t>(t)];
      mine.reserve(static_cast<std::size_t>(per_total));
      auto next = serve::Clock::now();
      for (int i = 0; i < per_total; ++i) {
        mine.push_back(fleet.submit(kFleetIds[t], random_image(rng)));
        next += interval;
        std::this_thread::sleep_until(next);
      }
    });
  }

  std::this_thread::sleep_for(duration / 4);  // ramp: not measured
  std::int64_t base[3];
  {
    const serve::FleetScheduler::Stats s = fleet.stats();
    for (int t = 0; t < 3; ++t) base[t] = s.tenants.at(kFleetIds[t]).completed;
  }
  for (auto& g : gens) g.join();
  std::int64_t window[3];
  std::int64_t window_total = 0;
  {
    const serve::FleetScheduler::Stats s = fleet.stats();
    for (int t = 0; t < 3; ++t) {
      window[t] = s.tenants.at(kFleetIds[t]).completed - base[t];
      window_total += window[t];
    }
  }
  fleet.stop(/*drain=*/false);  // shed the residual backlog (kShutdown)

  for (int t = 0; t < 3; ++t) {
    std::vector<double> lat;
    for (auto& f : futs[static_cast<std::size_t>(t)]) {
      const serve::Response r = f.get();
      if (r.ok()) lat.push_back(r.latency_us);
    }
    FleetTenantResult& tr = res.tenants[t];
    tr.window_completed = window[t];
    tr.share = window_total > 0 ? static_cast<double>(window[t]) /
                                      static_cast<double>(window_total)
                                : 0.0;
    tr.weight_share = kFleetWeights[t] / kFleetWeightSum;
    tr.rel_dev = std::fabs(tr.share - tr.weight_share) / tr.weight_share;
    tr.p50_us = percentile(lat, 0.50);
    tr.p99_us = percentile(lat, 0.99);
    res.max_rel_dev = std::max(res.max_rel_dev, tr.rel_dev);
  }
  res.all_resolved = fleet.stats().all_resolved();
  return res;
}

struct FleetDeadlineRun {
  std::int64_t tight_total = 0;     ///< tight-deadline requests submitted
  std::int64_t tight_ok = 0;        ///< served within their deadline
  std::int64_t tight_late = 0;      ///< served, but past the deadline
  std::int64_t tight_expired = 0;   ///< shed before dispatch (kExpired)
  std::int64_t tight_shutdown = 0;  ///< still queued at stop (excluded)
  std::int64_t metric_missed = 0;   ///< serve.deadline_missed delta

  std::int64_t missed() const { return tight_late + tight_expired; }
  double miss_rate() const {
    const std::int64_t denom = tight_total - tight_shutdown;
    return denom > 0 ? static_cast<double>(missed()) /
                           static_cast<double>(denom)
                     : 0.0;
  }
};

/// One tenant at 2x capacity, a tight deadline (duration/4) on every fourth
/// request and a deadline far beyond the run on the rest. Tight demand is
/// offered/4 = capacity/2 — comfortably servable IF the scheduler spends its
/// overloaded budget on the right requests. Under FIFO a tight request waits
/// behind the whole backlog and expires; under EDF it is pulled to the front
/// of the queue while it can still make its deadline. The miss count is late
/// completions + pre-dispatch expiries over tight requests only (the loose
/// ones can't miss; requests still queued at stop resolve kShutdown and are
/// excluded from both modes' denominators).
FleetDeadlineRun run_fleet_deadline(serve::TenantOrder order,
                                    double capacity_rps,
                                    std::chrono::milliseconds duration) {
  FleetDeadlineRun res;
  auto& missed_counter =
      trace::MetricsRegistry::global().counter("serve.deadline_missed");
  const std::int64_t missed_before = missed_counter.value();
  serve::FleetScheduler fleet(fleet_config(order));
  fleet.add_tenant(make_model(), fleet_tenant(0));

  const auto tight = duration / 4;
  const double tight_us =
      std::chrono::duration<double, std::micro>(tight).count();
  const double rate = 2.0 * capacity_rps;
  const auto interval = std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const int total = static_cast<int>(
      rate * std::chrono::duration<double>(duration).count());
  struct Sub {
    std::future<serve::Response> fut;
    bool tight = false;
  };
  std::vector<Sub> subs;
  subs.reserve(static_cast<std::size_t>(total));
  Rng rng(700);
  auto next = serve::Clock::now();
  for (int i = 0; i < total; ++i) {
    const bool is_tight = i % 4 == 3;
    const serve::Deadline d =
        serve::Deadline::after(is_tight ? tight : 20 * duration);
    Sub s;
    s.tight = is_tight;
    s.fut = fleet.submit(kFleetIds[0], random_image(rng), d);
    subs.push_back(std::move(s));
    next += interval;
    std::this_thread::sleep_until(next);
  }
  fleet.stop(/*drain=*/false);

  for (Sub& s : subs) {
    const serve::Response r = s.fut.get();
    if (!s.tight) continue;
    ++res.tight_total;
    switch (r.status) {
      case serve::Status::kOk:
        if (r.latency_us > tight_us) {
          ++res.tight_late;
        } else {
          ++res.tight_ok;
        }
        break;
      case serve::Status::kExpired: ++res.tight_expired; break;
      case serve::Status::kShutdown: ++res.tight_shutdown; break;
      case serve::Status::kRejected: break;  // capacity 1<<16: none
    }
  }
  res.metric_missed = missed_counter.value() - missed_before;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = bench::fast_mode();
  const char* json_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  trace::init_from_env();
  trace::Tracer::global().disable();

  // Parity first: a throughput number from a wrong answer is worthless.
  Rng parity_rng(5);
  std::vector<TensorF> parity_images;
  for (int i = 0; i < (smoke ? 12 : 32); ++i) {
    parity_images.push_back(random_image(parity_rng));
  }
  const bool parity = check_parity(parity_images);
  std::printf("parity (batched vs per-request, bitwise): %s\n",
              parity ? "identical" : "MISMATCH");

  const sim::DeviceProfile dev = sim::DeviceProfile::rtx3060ti();
  const double dev_rps1 = modeled_dispatch_rps(1, dev);
  const double dev_rps8 = modeled_dispatch_rps(8, dev);
  const double dev_speedup = dev_rps1 > 0.0 ? dev_rps8 / dev_rps1 : 0.0;
  std::printf("device-modeled dispatch (%s):\n", dev.name.c_str());
  std::printf("  batch 1: %10.0f req/s\n  batch 8: %10.0f req/s\n"
              "  batching speedup: %.2fx\n",
              dev_rps1, dev_rps8, dev_speedup);

  const int clients = 16;
  const int per_client = smoke ? 12 : 48;
  const ClosedLoopResult batch1 =
      run_closed_loop(1, clients, per_client, 100, fixed_size);
  const ClosedLoopResult batch8 =
      run_closed_loop(8, clients, per_client, 100, fixed_size);
  const double speedup = batch1.rps > 0.0 ? batch8.rps / batch1.rps : 0.0;
  std::printf("closed loop, %d clients:\n", clients);
  std::printf("  cap 1: %8.1f req/s   p50 %7.0f us   p99 %7.0f us   "
              "mean batch %.2f\n",
              batch1.rps, batch1.p50_us, batch1.p99_us, batch1.mean_batch);
  std::printf("  cap 8: %8.1f req/s   p50 %7.0f us   p99 %7.0f us   "
              "mean batch %.2f\n",
              batch8.rps, batch8.p50_us, batch8.p99_us, batch8.mean_batch);
  std::printf("  batching speedup: %.2fx\n", speedup);

  // Mixed-shape traffic: deterministic modeled replay (the 3x gate) plus
  // wall-clock closed loop under both policies.
  const auto arrivals = mixed_arrival_sequence(smoke ? 64 : 512);
  const MixedReplay mm = modeled_mixed(arrivals, 8, dev);
  std::printf("mixed-shape modeled replay (%zu arrivals, 8:50%% 6:20%% "
              "10:15%% 12:10%% 16:5%%):\n",
              arrivals.size());
  std::printf("  split+pad: %8.2f ms over %d dispatches\n"
              "  indirect : %8.2f ms over %d dispatches\n"
              "  ragged-batching speedup: %.2fx\n",
              mm.split_s * 1e3, mm.split_dispatches, mm.indirect_s * 1e3,
              mm.indirect_dispatches, mm.speedup);
  Rng mixed_rng(55);
  std::vector<TensorF> mixed_images;
  for (int i = 0; i < (smoke ? 12 : 32); ++i) {
    mixed_images.push_back(random_image(mixed_rng, draw_mixed_size(mixed_rng)));
  }
  const bool mixed_parity = check_parity(mixed_images);
  std::printf("mixed parity (indirect vs per-request, bitwise): %s\n",
              mixed_parity ? "identical" : "MISMATCH");
  const int mixed_per_client = smoke ? 12 : 48;
  const ClosedLoopResult msplit =
      run_split_baseline(clients, mixed_per_client);
  const ClosedLoopResult mind = run_closed_loop(
      8, clients, mixed_per_client, 500, draw_mixed_size);
  const double mixed_speedup = msplit.rps > 0.0 ? mind.rps / msplit.rps : 0.0;
  std::printf("mixed closed loop, %d clients:\n", clients);
  std::printf("  split   : %8.1f req/s   p50 %7.0f us   p99 %7.0f us   "
              "mean batch %.2f   (frozen baseline)\n",
              msplit.rps, msplit.p50_us, msplit.p99_us, msplit.mean_batch);
  std::printf("  indirect: %8.1f req/s   p50 %7.0f us   p99 %7.0f us   "
              "mean batch %.2f   indirect batches %lld\n",
              mind.rps, mind.p50_us, mind.p99_us, mind.mean_batch,
              static_cast<long long>(mind.indirect_batches));
  std::printf("  wall-clock speedup: %.2fx\n", mixed_speedup);

  // Open loop at fractions of the measured cap-8 capacity.
  const auto duration = smoke ? 300ms : 1500ms;
  std::vector<OpenLoopResult> open;
  for (const double frac : {0.25, 0.5, 0.8}) {
    const double rate = std::max(20.0, batch8.rps * frac);
    open.push_back(run_open_loop(rate, duration));
    const OpenLoopResult& o = open.back();
    std::printf("open loop %7.1f req/s offered: achieved %7.1f   p50 %7.0f "
                "us   p99 %7.0f us   rejected %lld   expired %lld\n",
                o.offered_rps, o.achieved_rps, o.p50_us, o.p99_us,
                static_cast<long long>(o.rejected),
                static_cast<long long>(o.expired));
  }

  // Multi-tenant fleet: weighted-fair shares and FIFO-vs-EDF deadline
  // misses under 2x overload.
  const double fleet_capacity = measure_fleet_capacity(smoke ? 200 : 800);
  const auto fleet_duration = smoke ? 400ms : 1500ms;
  const FleetFairness ff = run_fleet_fairness(fleet_capacity, fleet_duration);
  std::printf("fleet fairness (3 tenants 4/2/1, offered 2x capacity "
              "%.0f req/s):\n",
              ff.capacity_rps);
  for (int t = 0; t < 3; ++t) {
    const FleetTenantResult& tr = ff.tenants[t];
    std::printf("  %-7s weight %.0f: share %.3f (weight share %.3f, "
                "rel dev %4.1f%%)   p50 %8.0f us   p99 %8.0f us\n",
                kFleetIds[t], kFleetWeights[t], tr.share, tr.weight_share,
                100.0 * tr.rel_dev, tr.p50_us, tr.p99_us);
  }
  const FleetDeadlineRun fifo = run_fleet_deadline(serve::TenantOrder::kFifo,
                                                   fleet_capacity,
                                                   fleet_duration);
  const FleetDeadlineRun edf = run_fleet_deadline(serve::TenantOrder::kEdf,
                                                  fleet_capacity,
                                                  fleet_duration);
  std::printf("fleet deadline misses (tight = %lld ms on 1/4 of traffic):\n",
              static_cast<long long>(fleet_duration.count() / 4));
  std::printf("  fifo: missed %5lld of %5lld tight (%5.1f%%)   "
              "[late %lld, expired %lld]\n",
              static_cast<long long>(fifo.missed()),
              static_cast<long long>(fifo.tight_total - fifo.tight_shutdown),
              100.0 * fifo.miss_rate(), static_cast<long long>(fifo.tight_late),
              static_cast<long long>(fifo.tight_expired));
  std::printf("  edf : missed %5lld of %5lld tight (%5.1f%%)   "
              "[late %lld, expired %lld]\n",
              static_cast<long long>(edf.missed()),
              static_cast<long long>(edf.tight_total - edf.tight_shutdown),
              100.0 * edf.miss_rate(), static_cast<long long>(edf.tight_late),
              static_cast<long long>(edf.tight_expired));
  std::printf("  edf miss reduction: %.2fx\n",
              edf.missed() > 0 ? static_cast<double>(fifo.missed()) /
                                     static_cast<double>(edf.missed())
                               : static_cast<double>(fifo.missed()));

  if (json_path != nullptr) {
    // Array-of-runs layout (one run per invocation), matching
    // BENCH_host_hotpath.json so records can be appended across PRs.
    std::FILE* f = std::fopen(json_path, "w");
    if (f != nullptr) {
      std::fprintf(f, "[\n {\n  \"bench\": \"serving_throughput\",\n");
      std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
      std::fprintf(f, "  \"parity_bit_identical\": %s,\n",
                   parity ? "true" : "false");
      std::fprintf(f, "  \"device_modeled\": {\n");
      std::fprintf(f, "    \"device\": \"%s\",\n", dev.name.c_str());
      std::fprintf(f, "    \"batch1_rps\": %.0f,\n", dev_rps1);
      std::fprintf(f, "    \"batch8_rps\": %.0f,\n", dev_rps8);
      std::fprintf(f, "    \"speedup\": %.3f\n  },\n", dev_speedup);
      std::fprintf(f, "  \"closed_loop\": {\n");
      std::fprintf(f, "    \"clients\": %d,\n", clients);
      std::fprintf(f,
                   "    \"batch1\": {\"rps\": %.1f, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f, \"mean_batch\": %.2f},\n",
                   batch1.rps, batch1.p50_us, batch1.p99_us,
                   batch1.mean_batch);
      std::fprintf(f,
                   "    \"batch8\": {\"rps\": %.1f, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f, \"mean_batch\": %.2f},\n",
                   batch8.rps, batch8.p50_us, batch8.p99_us,
                   batch8.mean_batch);
      std::fprintf(f, "    \"speedup\": %.3f\n  },\n", speedup);
      std::fprintf(f, "  \"mixed\": {\n");
      std::fprintf(f, "    \"distribution\": \"8:50%% 6:20%% 10:15%% "
                      "12:10%% 16:5%%\",\n");
      std::fprintf(f, "    \"arrivals\": %zu,\n", arrivals.size());
      std::fprintf(f,
                   "    \"modeled\": {\"split_ms\": %.3f, \"split_dispatches"
                   "\": %d, \"indirect_ms\": %.3f, \"indirect_dispatches\": "
                   "%d, \"speedup\": %.3f},\n",
                   mm.split_s * 1e3, mm.split_dispatches, mm.indirect_s * 1e3,
                   mm.indirect_dispatches, mm.speedup);
      std::fprintf(f, "    \"parity_bit_identical\": %s,\n",
                   mixed_parity ? "true" : "false");
      std::fprintf(f, "    \"closed_loop\": {\n");
      std::fprintf(f,
                   "      \"split\": {\"rps\": %.1f, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f, \"mean_batch\": %.2f},\n",
                   msplit.rps, msplit.p50_us, msplit.p99_us,
                   msplit.mean_batch);
      std::fprintf(f,
                   "      \"indirect\": {\"rps\": %.1f, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f, \"mean_batch\": %.2f, "
                   "\"indirect_batches\": %lld},\n",
                   mind.rps, mind.p50_us, mind.p99_us, mind.mean_batch,
                   static_cast<long long>(mind.indirect_batches));
      std::fprintf(f, "      \"speedup\": %.3f\n    }\n  },\n",
                   mixed_speedup);
      std::fprintf(f, "  \"fleet\": {\n");
      std::fprintf(f, "    \"capacity_rps\": %.1f,\n", ff.capacity_rps);
      std::fprintf(f, "    \"offered_rps\": %.1f,\n", ff.offered_rps);
      std::fprintf(f, "    \"fairness\": {\n");
      for (int t = 0; t < 3; ++t) {
        const FleetTenantResult& tr = ff.tenants[t];
        std::fprintf(f,
                     "      \"%s\": {\"weight\": %.0f, \"share\": %.4f, "
                     "\"weight_share\": %.4f, \"rel_dev\": %.4f, "
                     "\"window_completed\": %lld, \"p50_us\": %.1f, "
                     "\"p99_us\": %.1f},\n",
                     kFleetIds[t], kFleetWeights[t], tr.share,
                     tr.weight_share, tr.rel_dev,
                     static_cast<long long>(tr.window_completed), tr.p50_us,
                     tr.p99_us);
      }
      std::fprintf(f, "      \"max_rel_dev\": %.4f\n    },\n",
                   ff.max_rel_dev);
      std::fprintf(f, "    \"deadline\": {\n");
      std::fprintf(f, "      \"tight_ms\": %lld,\n",
                   static_cast<long long>(fleet_duration.count() / 4));
      const FleetDeadlineRun* runs[2] = {&fifo, &edf};
      const char* run_names[2] = {"fifo", "edf"};
      for (int i = 0; i < 2; ++i) {
        const FleetDeadlineRun& d = *runs[i];
        std::fprintf(f,
                     "      \"%s\": {\"tight\": %lld, \"missed\": %lld, "
                     "\"late\": %lld, \"expired\": %lld, \"shutdown\": %lld, "
                     "\"miss_rate\": %.4f, \"deadline_missed_metric\": "
                     "%lld},\n",
                     run_names[i], static_cast<long long>(d.tight_total),
                     static_cast<long long>(d.missed()),
                     static_cast<long long>(d.tight_late),
                     static_cast<long long>(d.tight_expired),
                     static_cast<long long>(d.tight_shutdown), d.miss_rate(),
                     static_cast<long long>(d.metric_missed));
      }
      std::fprintf(f, "      \"edf_miss_reduction\": %.3f\n    }\n  },\n",
                   edf.missed() > 0 ? static_cast<double>(fifo.missed()) /
                                          static_cast<double>(edf.missed())
                                    : static_cast<double>(fifo.missed()));
      std::fprintf(f, "  \"open_loop\": [\n");
      for (std::size_t i = 0; i < open.size(); ++i) {
        const OpenLoopResult& o = open[i];
        std::fprintf(f,
                     "    {\"offered_rps\": %.1f, \"achieved_rps\": %.1f, "
                     "\"p50_us\": %.1f, \"p99_us\": %.1f, \"completed\": "
                     "%lld, \"rejected\": %lld, \"expired\": %lld}%s\n",
                     o.offered_rps, o.achieved_rps, o.p50_us, o.p99_us,
                     static_cast<long long>(o.completed),
                     static_cast<long long>(o.rejected),
                     static_cast<long long>(o.expired),
                     i + 1 < open.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n }\n]\n");
      std::fclose(f);
    }
  }

  bool fail = false;
  if (!parity) {
    std::printf("FAIL: batched outputs differ from per-request inference\n");
    fail = true;
  }
  if (dev_speedup < 2.0) {
    std::printf("FAIL: device-modeled batching speedup %.2fx below the 2x "
                "bound\n",
                dev_speedup);
    fail = true;
  }
  if (!mixed_parity) {
    std::printf("FAIL: indirect mixed-shape outputs differ from per-request "
                "inference\n");
    fail = true;
  }
  if (mm.speedup < 3.0) {
    std::printf("FAIL: modeled ragged-batching speedup %.2fx below the 3x "
                "bound\n",
                mm.speedup);
    fail = true;
  }
  if (!mind.all_resolved) {
    std::printf("FAIL: mixed closed loop leaked unresolved requests\n");
    fail = true;
  }
  // The wall-clock gate needs cores for the batch to fan out over; on a
  // 1-2 core box per-image compute serializes either way (see file comment).
  const unsigned cores = std::thread::hardware_concurrency();
  if (!smoke && cores >= 4 && speedup < 2.0) {
    std::printf("FAIL: wall-clock batching speedup %.2fx below the 2x bound "
                "(%u cores)\n",
                speedup, cores);
    fail = true;
  } else if (speedup < 2.0) {
    std::printf("note: wall-clock speedup %.2fx not gated (%s, %u cores)\n",
                speedup, smoke ? "smoke mode" : "needs >= 4 cores", cores);
  }
  if (!smoke && cores >= 4 && mixed_speedup < 3.0) {
    std::printf("FAIL: wall-clock ragged-batching speedup %.2fx below the "
                "3x bound (%u cores)\n",
                mixed_speedup, cores);
    fail = true;
  } else if (mixed_speedup < 3.0) {
    std::printf("note: mixed wall-clock speedup %.2fx not gated (%s, %u "
                "cores)\n",
                mixed_speedup, smoke ? "smoke mode" : "needs >= 4 cores",
                cores);
  }
  // Fleet gates: accounting always; the scheduling-dynamics gates (share
  // deviation, FIFO-vs-EDF miss ratio) are wall-clock outcomes and follow
  // the same full-mode, >= 4 core rule as the other wall-clock gates.
  if (!ff.all_resolved) {
    std::printf("FAIL: fleet fairness run leaked unresolved requests\n");
    fail = true;
  }
  if (!smoke && cores >= 4) {
    if (ff.max_rel_dev > 0.15) {
      std::printf("FAIL: fleet completion share deviates %.1f%% from weight "
                  "share (bound 15%%)\n",
                  100.0 * ff.max_rel_dev);
      fail = true;
    }
    if (fifo.missed() < 2 * std::max<std::int64_t>(edf.missed(), 1)) {
      std::printf("FAIL: FIFO deadline misses (%lld) not >= 2x EDF misses "
                  "(%lld)\n",
                  static_cast<long long>(fifo.missed()),
                  static_cast<long long>(edf.missed()));
      fail = true;
    }
  } else {
    std::printf("note: fleet share/miss gates not enforced (%s, %u cores)\n",
                smoke ? "smoke mode" : "needs >= 4 cores", cores);
  }
  std::printf(fail ? "FAIL\n" : "PASS\n");
  return fail ? 1 : 0;
}

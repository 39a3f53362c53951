// Single-model serving tests: one model deployed as a one-tenant
// FleetScheduler. Covers admission control, micro-batch assembly edge cases
// (max-wait expiry, fill-to-cap, deadline shedding, mixed shapes coalescing
// into one indirect batch), shutdown with and without drain, batched-vs-
// per-request bit parity, and the 8-thread concurrent-inference regression
// the const Model::infer path guarantees.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "serve/serve.hpp"

namespace iwg::serve {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Helpers

/// Tiny conv net with a classifier head; same seed → identical weights.
nn::Model make_tiny_classifier(unsigned seed = 7) {
  Rng rng(seed);
  nn::Model m;
  m.add(std::make_unique<nn::Conv2D>(3, 8, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "c1"));
  m.add(std::make_unique<nn::BatchNorm2D>(8));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::Conv2D>(8, 8, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "c2"));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::MaxPool2x2>());
  m.add(std::make_unique<nn::Flatten>());
  m.add(std::make_unique<nn::Linear>(4 * 4 * 8, 10, rng, "fc"));
  return m;
}

/// Conv-only net (no flatten/linear), so it accepts any H×W.
nn::Model make_tiny_fcn(unsigned seed = 11) {
  Rng rng(seed);
  nn::Model m;
  m.add(std::make_unique<nn::Conv2D>(3, 4, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "c1"));
  m.add(std::make_unique<nn::LeakyReLU>());
  return m;
}

TensorF random_image(Rng& rng, std::int64_t h = 8, std::int64_t w = 8,
                     std::int64_t c = 3) {
  TensorF x({h, w, c});
  x.fill_uniform(rng, -1.0f, 1.0f);
  return x;
}

/// Reference: run one image through the model as a batch of 1.
TensorF infer_single(const nn::Model& m, const TensorF& img) {
  TensorF x({1, img.dim(0), img.dim(1), img.dim(2)});
  std::memcpy(x.data(), img.data(),
              static_cast<std::size_t>(img.size()) * sizeof(float));
  return m.infer(x);
}

bool bits_equal(const TensorF& a, const TensorF& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// One model as a one-tenant fleet

constexpr const char* kModel = "model";

struct OneTenantConfig {
  FleetConfig fleet;
  TenantConfig tenant;
};

OneTenantConfig tiny_config() {
  OneTenantConfig cfg;
  cfg.fleet.workers = 1;
  cfg.fleet.max_wait = 2ms;
  cfg.fleet.idle_wait = 5ms;
  cfg.tenant.id = kModel;
  cfg.tenant.image_h = 8;
  cfg.tenant.image_w = 8;
  cfg.tenant.channels = 3;
  cfg.tenant.max_batch = 4;
  cfg.tenant.queue_capacity = 64;
  return cfg;
}

/// The single-model deployment: a fleet serving `model` as its only tenant.
std::unique_ptr<FleetScheduler> serve_one(nn::Model model,
                                          const OneTenantConfig& cfg) {
  auto fleet = std::make_unique<FleetScheduler>(cfg.fleet);
  fleet->add_tenant(std::move(model), cfg.tenant);
  return fleet;
}

// ---------------------------------------------------------------------------
// Batch assembly

TEST(SingleModelFleet, SingleRequestShipsAfterMaxWait) {
  OneTenantConfig cfg = tiny_config();
  cfg.fleet.max_wait = 20ms;
  cfg.fleet.idle_wait = 2s;  // a hang here would mean max-wait never fired
  auto fleet = serve_one(make_tiny_fcn(), cfg);
  Rng rng(1);
  const auto t0 = Clock::now();
  const Response r = fleet->submit(kModel, random_image(rng)).get();
  const auto elapsed = Clock::now() - t0;
  ASSERT_EQ(r.status, Status::kOk) << r.reason;
  EXPECT_EQ(r.batch_size, 1);
  // Shipped via max-wait expiry (not instantly, not via the idle timeout).
  EXPECT_GE(r.queue_us, 10000.0);
  EXPECT_LT(elapsed, 1s);
}

TEST(SingleModelFleet, FillsToMaxBatchWithoutWaitingFullWindow) {
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.max_batch = 3;
  cfg.fleet.max_wait = 5s;  // a full wait here would time the test out
  auto fleet = serve_one(make_tiny_fcn(), cfg);
  Rng rng(2);
  std::vector<std::future<Response>> futs;
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) futs.push_back(fleet->submit(kModel, random_image(rng)));
  for (auto& f : futs) {
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk) << r.reason;
    EXPECT_EQ(r.batch_size, 3);
  }
  EXPECT_LT(Clock::now() - t0, 2s);  // returned well before max_wait
}

TEST(SingleModelFleet, ShedsExpiredDeadlinesBeforeDispatch) {
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.max_batch = 2;
  cfg.fleet.max_wait = 1ms;
  auto fleet = serve_one(make_tiny_fcn(), cfg);
  Rng rng(3);
  auto fdead = fleet->submit(kModel, random_image(rng), Deadline::after(0us));
  auto flive = fleet->submit(kModel, random_image(rng));
  const Response dr = fdead.get();
  EXPECT_EQ(dr.status, Status::kExpired);
  EXPECT_GT(dr.latency_us, 0.0);
  const Response lr = flive.get();
  ASSERT_EQ(lr.status, Status::kOk) << lr.reason;
  EXPECT_EQ(lr.batch_size, 1);  // the expired request never joined a batch
  fleet->stop();
  const auto stats = fleet->stats().total;
  EXPECT_EQ(stats.expired, 1);
  EXPECT_TRUE(stats.all_resolved());
}

TEST(SingleModelFleet, StopOnIdleFleetJoinsPromptly) {
  // An idle worker parks for idle_wait between ticks; stop must wake it
  // instead of waiting the tick out.
  OneTenantConfig cfg = tiny_config();
  cfg.fleet.idle_wait = 10s;
  auto fleet = serve_one(make_tiny_fcn(), cfg);
  const auto t0 = Clock::now();
  fleet->stop();
  EXPECT_LT(Clock::now() - t0, 2s);
  EXPECT_FALSE(fleet->ready());
}

TEST(SingleModelFleet, BatchedOutputsBitIdenticalToPerRequestForward) {
  nn::Model reference = make_tiny_classifier(7);
  auto fleet = serve_one(make_tiny_classifier(7), tiny_config());

  Rng rng(123);
  std::vector<TensorF> images;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 20; ++i) images.push_back(random_image(rng));
  for (const TensorF& img : images) futs.push_back(fleet->submit(kModel, img));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Response r = futs[i].get();
    ASSERT_EQ(r.status, Status::kOk) << r.reason;
    EXPECT_GT(r.batch_size, 0);
    EXPECT_GT(r.latency_us, 0.0);
    const TensorF want = infer_single(reference, images[i]);
    EXPECT_TRUE(bits_equal(r.output, want)) << "request " << i;
  }
  fleet->stop();
  const auto stats = fleet->stats().total;
  EXPECT_EQ(stats.completed, 20);
  EXPECT_TRUE(stats.all_resolved());
}

TEST(SingleModelFleet, MixedShapesCoalesceIntoIndirectBatches) {
  // Interleaved A/B/A/B traffic ships as a handful of mixed-shape indirect
  // dispatches — not a batch-1 ping-pong cascade — and every output
  // matches the per-request dense forward bit for bit.
  nn::Model reference = make_tiny_fcn();
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.max_batch = 8;
  cfg.fleet.max_wait = 50ms;
  auto fleet = serve_one(make_tiny_fcn(), cfg);

  Rng rng(5);
  std::vector<TensorF> images;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 12; ++i) {
    const std::int64_t s = (i % 2 == 0) ? 8 : 6;  // interleaved shapes
    images.push_back(random_image(rng, s, s));
    futs.push_back(fleet->submit(kModel, images.back()));
  }
  for (int i = 0; i < 12; ++i) {
    const Response r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, Status::kOk) << r.reason;
    const std::int64_t s = (i % 2 == 0) ? 8 : 6;
    EXPECT_EQ(r.output.dim(1), s);  // conv is same-padded: H preserved
    EXPECT_TRUE(bits_equal(r.output,
                           infer_single(reference, images[static_cast<std::size_t>(i)])))
        << "request " << i;
  }
  fleet->stop();
  const auto stats = fleet->stats().total;
  EXPECT_TRUE(stats.all_resolved());
  EXPECT_EQ(stats.completed, 12);
  // Ping-pong regression: 12 interleaved requests must not cost anywhere
  // near 12 dispatches.
  EXPECT_LE(stats.batches, 4);
  EXPECT_GE(stats.indirect_batches, 1);
}

TEST(SingleModelFleet, ShapeIdenticalRunShipsDense) {
  // Uniform traffic coalesces into dense batches — a batch only goes
  // indirect when its shapes actually mix.
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.max_batch = 4;
  cfg.fleet.max_wait = 50ms;
  auto fleet = serve_one(make_tiny_fcn(), cfg);
  Rng rng(6);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(fleet->submit(kModel, random_image(rng)));
  for (auto& f : futs) ASSERT_EQ(f.get().status, Status::kOk);
  fleet->stop();
  const auto stats = fleet->stats().total;
  EXPECT_TRUE(stats.all_resolved());
  EXPECT_EQ(stats.indirect_batches, 0);  // one shape → dense dispatches only
  EXPECT_LE(stats.batches, 3);
}

// ---------------------------------------------------------------------------
// Admission and shutdown

TEST(SingleModelFleet, FullQueueRejectsWithReasonAndStopShedsQueued) {
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.queue_capacity = 2;
  cfg.tenant.max_batch = 8;
  cfg.fleet.max_wait = 5s;  // the two queued requests stay queued
  auto fleet = serve_one(make_tiny_fcn(), cfg);
  Rng rng(7);
  auto f1 = fleet->submit(kModel, random_image(rng));
  auto f2 = fleet->submit(kModel, random_image(rng));
  auto f3 = fleet->submit(kModel, random_image(rng));
  // The rejected promise resolves immediately with a reason.
  ASSERT_EQ(f3.wait_for(0s), std::future_status::ready);
  const Response r3 = f3.get();
  EXPECT_EQ(r3.status, Status::kRejected);
  EXPECT_EQ(r3.reason, "queue full");
  EXPECT_EQ(fleet->queue_depth(kModel), 2u);
  fleet->stop(/*drain=*/false);
  EXPECT_EQ(f1.get().status, Status::kShutdown);
  EXPECT_EQ(f2.get().status, Status::kShutdown);
  const auto stats = fleet->stats().total;
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.shed, 2);
  EXPECT_TRUE(stats.all_resolved());
}

TEST(SingleModelFleet, ClosedQueueResolvesShutdown) {
  auto fleet = serve_one(make_tiny_fcn(), tiny_config());
  fleet->stop(/*drain=*/true);
  Rng rng(8);
  auto f = fleet->submit(kModel, random_image(rng));
  // A closed fleet refuses at admission: the promise is resolved before
  // submit returns, and the request is counted as rejected, never accepted.
  ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(f.get().status, Status::kShutdown);
  const auto stats = fleet->stats().total;
  EXPECT_EQ(stats.accepted, 0);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_TRUE(stats.all_resolved());
}

TEST(SingleModelFleet, FullQueueRejectsAtAdmission) {
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.queue_capacity = 4;
  cfg.tenant.max_batch = 8;
  cfg.fleet.max_wait = 500ms;  // worker holds the batch open → queue fills
  auto fleet = serve_one(make_tiny_classifier(), cfg);

  Rng rng(9);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(fleet->submit(kModel, random_image(rng)));
  int ok = 0, rejected = 0;
  for (auto& f : futs) {
    const Response r = f.get();
    if (r.status == Status::kOk) ++ok;
    if (r.status == Status::kRejected) {
      ++rejected;
      EXPECT_EQ(r.reason, "queue full");
    }
  }
  EXPECT_EQ(ok + rejected, 12);
  EXPECT_GE(rejected, 1);  // capacity 4 cannot hold a burst of 12
  fleet->stop();
  const auto stats = fleet->stats().total;
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_TRUE(stats.all_resolved());
}

TEST(SingleModelFleet, DeadlineExpiredWhileBatchHeldOpenIsShed) {
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.max_batch = 8;     // never fills…
  cfg.fleet.max_wait = 50ms;    // …so the batch is held 50 ms
  auto fleet = serve_one(make_tiny_classifier(), cfg);

  Rng rng(10);
  auto fut = fleet->submit(kModel, random_image(rng), Deadline::after(5ms));
  const Response r = fut.get();
  EXPECT_EQ(r.status, Status::kExpired);
  fleet->stop();
  const auto stats = fleet->stats().total;
  EXPECT_EQ(stats.expired, 1);
  EXPECT_TRUE(stats.all_resolved());
}

TEST(SingleModelFleet, StopWithDrainServesEverythingQueued) {
  OneTenantConfig cfg = tiny_config();
  cfg.fleet.max_wait = 20ms;
  auto fleet = serve_one(make_tiny_classifier(), cfg);
  Rng rng(11);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 16; ++i) futs.push_back(fleet->submit(kModel, random_image(rng)));
  fleet->stop(/*drain=*/true);
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);
  const auto stats = fleet->stats().total;
  EXPECT_EQ(stats.completed, 16);
  EXPECT_TRUE(stats.all_resolved());
}

TEST(SingleModelFleet, DrainServesHeldMixedTraffic) {
  // stop(drain=true) must serve mixed-shape requests still held open for
  // max_wait, not shed them.
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.max_batch = 8;
  cfg.fleet.max_wait = 500ms;  // without drain these would sit queued
  auto fleet = serve_one(make_tiny_fcn(), cfg);
  Rng rng(15);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t s = (i % 2 == 0) ? 8 : 6;
    futs.push_back(fleet->submit(kModel, random_image(rng, s, s)));
  }
  fleet->stop(/*drain=*/true);
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);
  EXPECT_TRUE(fleet->stats().all_resolved());
}

TEST(SingleModelFleet, StopWithoutDrainResolvesEveryFuture) {
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.max_batch = 2;
  cfg.fleet.max_wait = 1ms;
  auto fleet = serve_one(make_tiny_classifier(), cfg);
  Rng rng(12);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(fleet->submit(kModel, random_image(rng)));
  fleet->stop(/*drain=*/false);  // in-flight batches finish; queue is shed
  int ok = 0, shut = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(5s), std::future_status::ready) << "unresolved future";
    const Response r = f.get();
    ASSERT_TRUE(r.status == Status::kOk || r.status == Status::kShutdown);
    (r.status == Status::kOk ? ok : shut)++;
  }
  EXPECT_EQ(ok + shut, 32);
  const auto stats = fleet->stats().total;
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.shed, shut);
  EXPECT_TRUE(stats.all_resolved());
  // Idempotent: stopping again (and the destructor after that) is a no-op.
  fleet->stop();
}

TEST(SingleModelFleet, StopWithoutDrainUnderMixedTrafficResolvesEveryFuture) {
  // The zero-unresolved-futures guarantee must survive the indirect path:
  // held requests are served or shed at stop, never leaked.
  OneTenantConfig cfg = tiny_config();
  cfg.tenant.max_batch = 4;
  cfg.fleet.max_wait = 200ms;  // some are likely still held at stop
  auto fleet = serve_one(make_tiny_fcn(), cfg);
  Rng rng(14);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 24; ++i) {
    const std::int64_t s = (i % 3 == 0) ? 6 : ((i % 3 == 1) ? 8 : 10);
    futs.push_back(fleet->submit(kModel, random_image(rng, s, s)));
  }
  fleet->stop(/*drain=*/false);
  int ok = 0, shut = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(5s), std::future_status::ready) << "unresolved future";
    const Response r = f.get();
    ASSERT_TRUE(r.status == Status::kOk || r.status == Status::kShutdown);
    (r.status == Status::kOk ? ok : shut)++;
  }
  EXPECT_EQ(ok + shut, 24);
  const auto stats = fleet->stats().total;
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.shed, shut);
  EXPECT_TRUE(stats.all_resolved());
}

TEST(SingleModelFleet, SubmitAfterStopResolvesShutdown) {
  auto fleet = serve_one(make_tiny_classifier(), tiny_config());
  fleet->stop();
  Rng rng(13);
  const Response r = fleet->submit(kModel, random_image(rng)).get();
  EXPECT_EQ(r.status, Status::kShutdown);
  EXPECT_FALSE(r.reason.empty());
}

// ---------------------------------------------------------------------------
// Concurrent inference regression (satellite: const/thread-safe forward)

TEST(ConcurrentInference, EightThreadsMatchSingleThread) {
  nn::Model model = make_tiny_classifier(21);
  Rng rng(22);
  TensorF x({4, 8, 8, 3});
  x.fill_uniform(rng, -1.0f, 1.0f);
  const TensorF want = model.forward(x, /*train=*/false);
  const TensorF want_infer = model.infer(x);
  ASSERT_TRUE(bits_equal(want, want_infer));  // infer ≡ eval-mode forward

  constexpr int kThreads = 8;
  constexpr int kReps = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        const TensorF y = model.infer(x);
        if (!bits_equal(y, want)) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(ConcurrentInference, ResNetInferMatchesEvalForward) {
  // ResidualBlock (incl. projection shortcut) also needs a const path.
  nn::ModelConfig cfg;
  cfg.image_size = 8;
  cfg.base_channels = 4;
  nn::Model model = nn::make_resnet(18, cfg);
  Rng rng(33);
  TensorF x({2, 8, 8, 3});
  x.fill_uniform(rng, -1.0f, 1.0f);
  const TensorF want = model.forward(x, false);
  EXPECT_TRUE(bits_equal(model.infer(x), want));
}

}  // namespace
}  // namespace iwg::serve

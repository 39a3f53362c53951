// Host hot-path subsystem: filter-transform cache semantics (hit/miss,
// version staleness, invalidation), the sliding-window engine against
// direct/FP64 references including off-origin segments, and the end-to-end
// nn contract that a weight update can never be served a stale transform.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "core/gamma_host.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "reference/direct_conv.hpp"
#include "tensor/metrics.hpp"

namespace iwg::core {
namespace {

TensorF rand_tensor(std::initializer_list<std::int64_t> dims, unsigned seed,
                    float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  TensorF t(dims);
  t.fill_uniform(rng, lo, hi);
  return t;
}

double tol_for(int alpha) { return alpha >= 16 ? 5e-3 : 1e-4; }

ConvShape small_shape() {
  ConvShape s;
  s.n = 1;
  s.ih = 6;
  s.iw = 12;
  s.ic = 3;
  s.oc = 4;
  s.fh = 3;
  s.fw = 3;
  s.ph = 1;
  s.pw = 1;
  s.validate();
  return s;
}

// ---------------------------------------------------------------------------
// FilterTransformCache semantics

TEST(FilterTransformCache, HitReturnsSameTransform) {
  FilterTransformCache cache(8);
  const ConvShape s = small_shape();
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 1);
  const GammaConfig cfg = GammaConfig::make(8, 6, 3);
  FilterTransformCache::Key key{w.data(), 7, cfg.alpha, cfg.r,
                                FilterKind::kForward};
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return transform_filter_host(w, s, cfg);
  };
  const auto a = cache.get_or_compute(key, compute);
  const auto b = cache.get_or_compute(key, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(a.get(), b.get());  // shared entry, not a copy
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FilterTransformCache, NewVersionRecomputesAndPurgesStale) {
  FilterTransformCache cache(8);
  const ConvShape s = small_shape();
  TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 2);
  const GammaConfig cfg = GammaConfig::make(8, 6, 3);
  FilterTransformCache::Key key{w.data(), 0, cfg.alpha, cfg.r,
                                FilterKind::kForward};
  auto compute = [&] { return transform_filter_host(w, s, cfg); };
  const auto v0 = cache.get_or_compute(key, compute);
  w[0] += 1.0f;  // mutate weights, bump version
  key.version = 1;
  const auto v1 = cache.get_or_compute(key, compute);
  EXPECT_NE(v0.get(), v1.get());
  EXPECT_NE((*v0)[0], (*v1)[0]);  // transform reflects the new weights
  EXPECT_EQ(cache.size(), 1u);    // the stale version was dropped
}

TEST(FilterTransformCache, DistinctGeometriesCoexist) {
  FilterTransformCache cache(8);
  const ConvShape s = small_shape();
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 3);
  const GammaConfig a = GammaConfig::make(8, 6, 3);
  const GammaConfig b = GammaConfig::make(4, 2, 3);
  cache.get_or_compute({w.data(), 0, a.alpha, a.r, FilterKind::kForward},
                       [&] { return transform_filter_host(w, s, a); });
  cache.get_or_compute({w.data(), 0, b.alpha, b.r, FilterKind::kForward},
                       [&] { return transform_filter_host(w, s, b); });
  // Deconv transform of the same weights is a third, separate entry.
  cache.get_or_compute({w.data(), 0, a.alpha, a.r, FilterKind::kDeconv},
                       [&] { return transform_filter_host(w, s, a); });
  EXPECT_EQ(cache.size(), 3u);
}

TEST(FilterTransformCache, InvalidateDropsAllEntriesOfWeights) {
  FilterTransformCache cache(8);
  const ConvShape s = small_shape();
  const TensorF w1 = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 4);
  const TensorF w2 = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 5);
  const GammaConfig cfg = GammaConfig::make(8, 6, 3);
  auto c1 = [&] { return transform_filter_host(w1, s, cfg); };
  auto c2 = [&] { return transform_filter_host(w2, s, cfg); };
  cache.get_or_compute(
      {w1.data(), 0, cfg.alpha, cfg.r, FilterKind::kForward}, c1);
  cache.get_or_compute({w1.data(), 0, cfg.alpha, cfg.r, FilterKind::kDeconv},
                       c1);
  cache.get_or_compute(
      {w2.data(), 0, cfg.alpha, cfg.r, FilterKind::kForward}, c2);
  cache.invalidate(w1.data());
  EXPECT_EQ(cache.size(), 1u);  // only w2's entry survives
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FilterTransformCache, LruEvictionBoundsSize) {
  FilterTransformCache cache(2);
  const ConvShape s = small_shape();
  std::vector<TensorF> ws;
  const GammaConfig cfg = GammaConfig::make(8, 6, 3);
  for (int i = 0; i < 5; ++i) {
    ws.push_back(rand_tensor({s.oc, s.fh, s.fw, s.ic}, 10 + i));
    cache.get_or_compute(
        {ws.back().data(), 0, cfg.alpha, cfg.r, FilterKind::kForward},
        [&] { return transform_filter_host(ws.back(), s, cfg); });
    EXPECT_LE(cache.size(), 2u);
  }
}

TEST(FilterTransformCache, MissCounterCountsDistinctVersionConfigPairs) {
  FilterTransformCache cache(8);
  const ConvShape s = small_shape();
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 6);
  const GammaConfig cfg = GammaConfig::make(8, 6, 3);
  const std::int64_t miss0 = filter_transform_misses().value();
  const std::int64_t hit0 = filter_transform_hits().value();
  auto compute = [&] { return transform_filter_host(w, s, cfg); };
  for (std::uint64_t v = 0; v < 3; ++v) {
    for (int rep = 0; rep < 4; ++rep) {
      cache.get_or_compute(
          {w.data(), v, cfg.alpha, cfg.r, FilterKind::kForward}, compute);
    }
  }
  EXPECT_EQ(filter_transform_misses().value() - miss0, 3);
  EXPECT_EQ(filter_transform_hits().value() - hit0, 9);
}

// ---------------------------------------------------------------------------
// Engine correctness: cached path, off-origin segments, sliding window

TEST(HostHotpath, CachedConvMatchesUncachedBitExactly) {
  const ConvShape s = small_shape();
  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 20);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 21);
  FilterTransformCache cache(8);
  ConvOptions cached;
  cached.filter_cache = &cache;
  cached.weights_version = 0;
  const TensorF fresh = conv2d(x, w, s);
  const TensorF first = conv2d(x, w, s, cached);
  const TensorF repeat = conv2d(x, w, s, cached);  // served from cache
  EXPECT_EQ(max_abs_diff(fresh, first), 0.0);
  EXPECT_EQ(max_abs_diff(fresh, repeat), 0.0);
}

TEST(HostHotpath, OffOriginSegmentMatchesDirectColumns) {
  // A Γ segment with ow_start != 0 (as the boundary planner emits after a
  // leading segment) must land in exactly its own output columns.
  ConvShape s;
  s.n = 2;
  s.ih = 5;
  s.iw = 17;
  s.ic = 3;
  s.oc = 5;
  s.fh = 3;
  s.fw = 3;
  s.ph = 1;
  s.pw = 1;
  s.validate();
  const GammaConfig cfg = GammaConfig::make(8, 6, 3);
  const std::int64_t ow_start = 3;
  const std::int64_t ow_len = 12;  // 2 tiles of n=6
  ASSERT_LE(ow_start + ow_len, s.ow());

  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 30);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 31);
  const TensorF want = ref::conv2d_direct(x, w, s);
  TensorF got({s.n, s.oh(), s.ow(), s.oc});
  const float sentinel = 1234.5f;
  got.fill(sentinel);
  conv2d_gamma_host_segment(x, w, s, cfg, ow_start, ow_len, got);
  for (std::int64_t ni = 0; ni < s.n; ++ni) {
    for (std::int64_t hi = 0; hi < s.oh(); ++hi) {
      for (std::int64_t wo = 0; wo < s.ow(); ++wo) {
        for (std::int64_t oc = 0; oc < s.oc; ++oc) {
          if (wo >= ow_start && wo < ow_start + ow_len) {
            EXPECT_NEAR(got.at(ni, hi, wo, oc), want.at(ni, hi, wo, oc),
                        tol_for(cfg.alpha) *
                            (1.0 + std::abs(want.at(ni, hi, wo, oc))));
          } else {
            EXPECT_EQ(got.at(ni, hi, wo, oc), sentinel);  // untouched
          }
        }
      }
    }
  }
}

TEST(HostHotpath, SlidingWindowFuzzAgainstFp64Reference) {
  Rng rng(77);
  for (int iter = 0; iter < 25; ++iter) {
    ConvShape s;
    s.n = 1 + static_cast<std::int64_t>(rng.below(3));
    s.ic = 1 + static_cast<std::int64_t>(rng.below(6));
    s.oc = 1 + static_cast<std::int64_t>(rng.below(8));
    s.fh = 1 + static_cast<std::int64_t>(rng.below(5));
    s.fw = 2 + static_cast<std::int64_t>(rng.below(6));  // 2..7
    s.ph = static_cast<std::int64_t>(rng.below(
        static_cast<std::uint64_t>(s.fh)));
    s.pw = static_cast<std::int64_t>(rng.below(
        static_cast<std::uint64_t>(s.fw)));
    s.ih = s.fh + s.ph + static_cast<std::int64_t>(rng.below(7));
    s.iw = s.fw + s.pw + static_cast<std::int64_t>(rng.below(21));
    s.validate();

    TensorF x({s.n, s.ih, s.iw, s.ic});
    TensorF w({s.oc, s.fh, s.fw, s.ic});
    x.fill_uniform(rng, -1.0f, 1.0f);
    w.fill_uniform(rng, -1.0f, 1.0f);

    const TensorD want = ref::conv2d_direct_fp64(x, w, s);
    const TensorF got = conv2d(x, w, s, plan_for(s));
    const double tol = s.fw >= 7 ? 1e-2 : 5e-4;
    double worst = 0.0;
    for (std::int64_t i = 0; i < got.size(); ++i) {
      const double d = std::abs(static_cast<double>(got[i]) - want[i]) /
                       (1.0 + std::abs(want[i]));
      worst = std::max(worst, d);
    }
    EXPECT_LT(worst, tol) << "iter " << iter << " shape " << s.to_string();
  }
}

TEST(HostHotpath, DeconvCachedMatchesUncached) {
  const ConvShape s = small_shape();
  const TensorF dy = rand_tensor({s.n, s.oh(), s.ow(), s.oc}, 40);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 41);
  FilterTransformCache cache(8);
  ConvOptions cached;
  cached.filter_cache = &cache;
  const TensorF fresh = deconv2d(dy, w, s);
  const TensorF a = deconv2d(dy, w, s, cached);
  const TensorF b = deconv2d(dy, w, s, cached);
  EXPECT_EQ(max_abs_diff(fresh, a), 0.0);
  EXPECT_EQ(max_abs_diff(fresh, b), 0.0);
  // Forward + deconv of the same weights occupy separate cache entries.
  conv2d(rand_tensor({s.n, s.ih, s.iw, s.ic}, 42), w, s, cached);
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// nn end-to-end: the stale-cache regression

TEST(HostHotpath, WeightUpdateInvalidatesCachedTransform) {
  // Forward (fills the cache), optimizer step (bumps the version), forward
  // again: the second forward must match a from-scratch convolution with the
  // updated weights, not the cached transform of the old ones.
  Rng rng(50);
  nn::Conv2D conv(3, 4, 3, 1, 1, nn::ConvEngine::kWinograd, rng);
  const TensorF x = rand_tensor({2, 6, 7, 3}, 51);

  const TensorF y0 = conv.forward(x, /*train=*/true);
  for (nn::Param* p : conv.params()) p->zero_grad();
  conv.backward(rand_tensor({2, 6, 7, 4}, 52));
  nn::Sgdm opt(0.05f, 0.9f);
  opt.step(conv.params());

  const TensorF y1 = conv.forward(x, /*train=*/false);
  EXPECT_GT(max_abs_diff(y0, y1), 0.0);  // the step changed the output

  // Reference: same updated weights through an uncached fresh layer path.
  ConvShape s;
  s.n = 2; s.ih = 6; s.iw = 7; s.ic = 3; s.oc = 4;
  s.fh = 3; s.fw = 3; s.ph = 1; s.pw = 1;
  s.validate();
  std::vector<nn::Param*> params = conv.params();
  TensorF want = ref::conv2d_direct(x, params[0]->value, s);
  const TensorF& bias = params[1]->value;
  for (std::int64_t m = 0; m < want.size() / s.oc; ++m) {
    for (std::int64_t c = 0; c < s.oc; ++c) want[m * s.oc + c] += bias[c];
  }
  EXPECT_LT(max_rel_diff(y1, want), tol_for(16));
}

TEST(HostHotpath, OptimizerStepBumpsEveryParamVersion) {
  Rng rng(60);
  nn::Conv2D conv(2, 3, 3, 1, 1, nn::ConvEngine::kWinograd, rng);
  std::vector<nn::Param*> params = conv.params();
  std::vector<std::uint64_t> before;
  for (nn::Param* p : params) before.push_back(p->version);
  conv.forward(rand_tensor({1, 4, 4, 2}, 61), true);
  for (nn::Param* p : conv.params()) p->zero_grad();
  conv.backward(rand_tensor({1, 4, 4, 3}, 62));
  nn::Adam opt;
  opt.step(params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i]->version, before[i] + 1) << params[i]->name;
  }
}

TEST(HostHotpath, TrainingForwardReusesTransformAcrossCalls) {
  Rng rng(70);
  nn::Conv2D conv(3, 4, 3, 1, 1, nn::ConvEngine::kWinograd, rng);
  const TensorF x = rand_tensor({1, 6, 6, 3}, 71);
  conv.forward(x, false);  // populate
  const std::int64_t miss0 = filter_transform_misses().value();
  const std::int64_t hit0 = filter_transform_hits().value();
  conv.forward(x, false);
  conv.forward(x, false);
  EXPECT_EQ(filter_transform_misses().value(), miss0);  // no new transforms
  EXPECT_GT(filter_transform_hits().value(), hit0);
}

}  // namespace
}  // namespace iwg::core

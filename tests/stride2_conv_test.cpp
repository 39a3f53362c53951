// Stride-2 convolution through the unit-stride engine (space-to-depth, DWM):
// the rewritten geometry, the filter rearrangement, filter-cache reuse and
// invalidation, agreement with the kGemm engine's scalar reference, and the
// lazily allocated gradients that keep inference-only models free of
// gradient storage.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "reference/im2col_gemm.hpp"
#include "tensor/metrics.hpp"

namespace iwg {
namespace {

TensorF rand_tensor(const std::vector<std::int64_t>& dims, unsigned seed) {
  Rng rng(seed);
  TensorF t(dims);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

ConvShape layer_shape(std::int64_t n, std::int64_t ih, std::int64_t iw,
                      std::int64_t ic, std::int64_t oc, std::int64_t f,
                      std::int64_t pad) {
  ConvShape s{.n = n, .ih = ih, .iw = iw, .ic = ic, .oc = oc, .fh = f,
              .fw = f, .ph = pad, .pw = pad};
  s.validate();
  return s;
}

bool bitwise_equal(const TensorF& a, const TensorF& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

TEST(SpaceToDepth, ShapeRunsAtStride2Extents) {
  for (std::int64_t f = 1; f <= 7; ++f) {
    for (std::int64_t pad = 0; pad < f; ++pad) {
      for (std::int64_t ih = f; ih < f + 6; ++ih) {
        const ConvShape s = layer_shape(2, ih, ih + 1, 3, 4, f, pad);
        const ConvShape r = core::space_to_depth_shape(s);
        EXPECT_EQ(r.oh(), (ih + 2 * pad - f) / 2 + 1);
        EXPECT_EQ(r.ow(), (ih + 1 + 2 * pad - f) / 2 + 1);
        EXPECT_EQ(r.fh, (f + 1) / 2);
        EXPECT_EQ(r.ic, (f == 1 ? 1 : 4) * 3);
        EXPECT_EQ(r.ph, 0);
        EXPECT_EQ(r.n, 2);
      }
    }
  }
}

TEST(SpaceToDepth, FilterPlacesEachTapByPhase) {
  const TensorF w = rand_tensor({2, 3, 3, 5}, 1);
  const TensorF wp = core::space_to_depth_filter(w);
  ASSERT_EQ(wp.dim(0), 2);
  ASSERT_EQ(wp.dim(1), 2);
  ASSERT_EQ(wp.dim(2), 2);
  ASSERT_EQ(wp.dim(3), 4 * 5);
  for (std::int64_t o = 0; o < 2; ++o) {
    for (std::int64_t a = 0; a < 2; ++a) {
      for (std::int64_t b = 0; b < 2; ++b) {
        for (std::int64_t p = 0; p < 2; ++p) {
          for (std::int64_t q = 0; q < 2; ++q) {
            for (std::int64_t c = 0; c < 5; ++c) {
              const bool tap = 2 * a + p < 3 && 2 * b + q < 3;
              const float want = tap ? w.at(o, 2 * a + p, 2 * b + q, c) : 0.0f;
              EXPECT_EQ(wp.at(o, a, b, (p * 2 + q) * 5 + c), want);
            }
          }
        }
      }
    }
  }
  // A 1×1 filter needs no rearrangement.
  const TensorF w1 = rand_tensor({3, 1, 1, 4}, 2);
  EXPECT_TRUE(bitwise_equal(core::space_to_depth_filter(w1), w1));
  EXPECT_EQ(core::space_to_depth_filter(w1, nullptr, 0).get(), &w1);
}

TEST(SpaceToDepth, MatchesStridedReferenceForResNetShapes) {
  // The two stride-2 convs of a ResNet stage entry: 3×3 pad 1 and the 1×1
  // projection, at even and odd extents.
  for (const std::int64_t hw : {16, 15, 8}) {
    for (const std::int64_t f : {3, 1}) {
      const ConvShape s = layer_shape(2, hw, hw, 16, 24, f, f / 2);
      const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 10);
      const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 11);
      const TensorF got = core::conv2d_stride2(x, w, s);
      const TensorF want = ref::conv2d_implicit_gemm_strided(x, w, s, 2, 2);
      ASSERT_TRUE(got.same_shape(want)) << s.to_string();
      EXPECT_LT(max_rel_diff(got, want), 1e-4) << s.to_string();
    }
  }
}

TEST(SpaceToDepth, CachedFiltersAreComputedOncePerVersion) {
  const ConvShape s = layer_shape(1, 12, 13, 6, 8, 3, 1);
  const TensorF x = rand_tensor({s.n, s.ih, s.iw, s.ic}, 20);
  const TensorF w = rand_tensor({s.oc, s.fh, s.fw, s.ic}, 21);
  core::FilterTransformCache cache(16);
  core::ConvOptions opts;
  opts.filter_cache = &cache;
  const TensorF plain = core::conv2d_stride2(x, w, s);
  const TensorF first = core::conv2d_stride2(x, w, s, opts);
  const std::size_t entries = cache.size();  // w' plus one ĝ per (α, r)
  EXPECT_GE(entries, 2u);
  const std::int64_t miss0 = core::filter_transform_misses().value();
  const TensorF again = core::conv2d_stride2(x, w, s, opts);
  EXPECT_EQ(core::filter_transform_misses().value(), miss0);
  EXPECT_EQ(cache.size(), entries);
  EXPECT_TRUE(bitwise_equal(first, plain));
  EXPECT_TRUE(bitwise_equal(again, plain));
  // A new version replaces every entry of the old one.
  opts.weights_version = 1;
  core::conv2d_stride2(x, w, s, opts);
  EXPECT_EQ(cache.size(), entries);
  EXPECT_GT(core::filter_transform_misses().value(), miss0);
}

// A one-layer model around a stride-2 conv, for weight files.
nn::Model stride2_model(unsigned seed) {
  Rng rng(seed);
  nn::Model m;
  m.add(std::make_unique<nn::Conv2D>(4, 6, 3, 2, 1, nn::ConvEngine::kWinograd,
                                     rng, "s2"));
  return m;
}

TEST(SpaceToDepth, LoadWeightsServesTheNewWeights) {
  // After load_weights, a stride-2 layer must run on the loaded weights bit
  // for bit like a freshly built layer holding them — never on w' or ĝ
  // cached for the weights it held before.
  const TensorF x = rand_tensor({2, 11, 10, 4}, 30);
  nn::Model old_model = stride2_model(1);
  const TensorF before = old_model.infer(x);  // caches w', ĝ of version 0
  nn::Model fresh = stride2_model(2);
  const std::string path = testing::TempDir() + "iwg_stride2_weights.bin";
  nn::save_weights(fresh, path);
  nn::load_weights(old_model, path);
  std::remove(path.c_str());
  const TensorF after = old_model.infer(x);
  EXPECT_FALSE(bitwise_equal(after, before));
  EXPECT_TRUE(bitwise_equal(after, fresh.infer(x)));
}

TEST(SpaceToDepth, WinogradLayerMatchesGemmLayer) {
  const TensorF x = rand_tensor({2, 9, 12, 4}, 40);
  for (const std::int64_t f : {1, 3}) {
    Rng ra(41);
    Rng rb(41);
    nn::Conv2D wino(4, 6, f, 2, f / 2, nn::ConvEngine::kWinograd, ra);
    nn::Conv2D gemm(4, 6, f, 2, f / 2, nn::ConvEngine::kGemm, rb);
    EXPECT_LT(max_rel_diff(wino.infer(x), gemm.infer(x)), 1e-4) << "f=" << f;
  }
}

TEST(LazyGradients, InferenceOnlyLayersHoldNoGradientStorage) {
  nn::ModelConfig mc;
  mc.image_size = 8;
  mc.base_channels = 4;
  nn::Model model = nn::make_resnet(18, mc);
  (void)model.infer(rand_tensor({1, 8, 8, 3}, 50));
  for (const nn::Param* p : model.params()) {
    EXPECT_TRUE(p->grad.empty()) << p->name;
  }
}

TEST(LazyGradients, BackwardAndZeroGradAllocateOnFirstUse) {
  Rng rng(60);
  nn::Conv2D conv(3, 4, 3, 2, 1, nn::ConvEngine::kWinograd, rng);
  std::vector<nn::Param*> params = conv.params();
  params[1]->zero_grad();  // the bias, before any accumulation
  EXPECT_EQ(params[1]->grad.size(), 4);
  EXPECT_TRUE(params[0]->grad.empty());
  conv.forward(rand_tensor({1, 6, 6, 3}, 61), /*train=*/true);
  conv.backward(rand_tensor({1, 3, 3, 4}, 62));
  ASSERT_TRUE(params[0]->grad.same_shape(params[0]->value));
  double norm = 0.0;
  for (std::int64_t i = 0; i < params[0]->grad.size(); ++i) {
    norm += std::abs(params[0]->grad[i]);
  }
  EXPECT_GT(norm, 0.0);

  // An optimizer step on a parameter that never saw a gradient reads it as
  // zero: plain SGD leaves the value where it was.
  nn::Param idle;
  idle.value = rand_tensor({3}, 63);
  const TensorF start = idle.value;
  nn::Sgdm opt(0.1f, 0.0f);
  opt.step({&idle});
  EXPECT_TRUE(bitwise_equal(idle.value, start));
  EXPECT_EQ(idle.version, 1u);
}

}  // namespace
}  // namespace iwg

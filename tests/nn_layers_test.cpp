// Gradient checks (finite differences) for every layer, plus semantic unit
// tests. Gradcheck validates both the layer backward rules and, for Conv2D,
// the full Winograd forward/backward/filter-grad stack end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "common/rng.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"

namespace iwg::nn {
namespace {

/// Scalar objective: sum of elementwise weighted outputs (weights fixed so
/// the objective is smooth and generic).
float objective(const TensorF& y) {
  float s = 0.0f;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    s += y[i] * (0.1f + 0.01f * static_cast<float>(i % 17));
  }
  return s;
}

TensorF objective_grad(const TensorF& y) {
  TensorF g = y;
  for (std::int64_t i = 0; i < g.size(); ++i) {
    g[i] = 0.1f + 0.01f * static_cast<float>(i % 17);
  }
  return g;
}

/// Check dL/dx and dL/dparams of `layer` at input `x` by central differences.
/// `allowed_outliers` absorbs finite-difference breakdown at ReLU kinks
/// (the perturbation flips an activation sign and the two-sided difference
/// no longer measures the one-sided derivative backward uses).
void gradcheck(Layer& layer, TensorF x, float tol = 2e-2f,
               int max_checks = 24, int allowed_outliers = 0) {
  int outliers = 0;
  const TensorF y = layer.forward(x, /*train=*/true);
  const TensorF dy = objective_grad(y);
  for (Param* p : layer.params()) p->zero_grad();
  const TensorF dx = layer.backward(dy);

  const float eps = 3e-3f;
  // Input gradient.
  Rng pick(99);
  for (int k = 0; k < max_checks; ++k) {
    const std::int64_t i =
        static_cast<std::int64_t>(pick.below(static_cast<std::uint64_t>(x.size())));
    const float saved = x[i];
    x[i] = saved + eps;
    const float lp = objective(layer.forward(x, true));
    x[i] = saved - eps;
    const float lm = objective(layer.forward(x, true));
    x[i] = saved;
    const float want = (lp - lm) / (2 * eps);
    if (std::abs(dx[i] - want) > tol * (1.0f + std::abs(want))) {
      ++outliers;
      EXPECT_LE(outliers, allowed_outliers) << "input grad at " << i << ": "
                                            << dx[i] << " vs " << want;
    }
  }
  // Parameter gradients (re-run forward to restore caches).
  layer.forward(x, true);
  for (Param* p : layer.params()) {
    for (int k = 0; k < max_checks / 2; ++k) {
      const std::int64_t i = static_cast<std::int64_t>(
          pick.below(static_cast<std::uint64_t>(p->value.size())));
      const float saved = p->value[i];
      // Param's contract: every in-place mutation of `value` bumps `version`
      // (otherwise the filter-transform cache would serve stale transforms
      // and the perturbation would not reach the output).
      p->value[i] = saved + eps;
      ++p->version;
      const float lp = objective(layer.forward(x, true));
      p->value[i] = saved - eps;
      ++p->version;
      const float lm = objective(layer.forward(x, true));
      p->value[i] = saved;
      ++p->version;
      const float want = (lp - lm) / (2 * eps);
      if (std::abs(p->grad[i] - want) > tol * (1.0f + std::abs(want))) {
        ++outliers;
        EXPECT_LE(outliers, allowed_outliers)
            << p->name << " grad at " << i << ": " << p->grad[i] << " vs "
            << want;
      }
    }
  }
}

TensorF rand_input(std::initializer_list<std::int64_t> dims, unsigned seed) {
  Rng rng(seed);
  TensorF t(dims);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

TEST(NnGradcheck, Conv2DWinogradUnitStride) {
  Rng rng(1);
  Conv2D conv(3, 4, 3, 1, 1, ConvEngine::kWinograd, rng);
  gradcheck(conv, rand_input({2, 6, 7, 3}, 2));
}

TEST(NnGradcheck, Conv2DGemmUnitStride) {
  Rng rng(3);
  Conv2D conv(3, 4, 3, 1, 1, ConvEngine::kGemm, rng);
  gradcheck(conv, rand_input({2, 6, 7, 3}, 4));
}

TEST(NnGradcheck, Conv2DWinograd5x5) {
  Rng rng(5);
  Conv2D conv(2, 3, 5, 1, 2, ConvEngine::kWinograd, rng);
  gradcheck(conv, rand_input({1, 8, 9, 2}, 6));
}

TEST(NnGradcheck, Conv2DStride2) {
  Rng rng(7);
  Conv2D conv(3, 4, 3, 2, 1, ConvEngine::kWinograd, rng);
  gradcheck(conv, rand_input({2, 8, 8, 3}, 8));
}

TEST(NnGradcheck, Conv2DPointwise) {
  Rng rng(9);
  Conv2D conv(4, 5, 1, 1, 0, ConvEngine::kWinograd, rng);
  gradcheck(conv, rand_input({2, 4, 4, 4}, 10));
}

TEST(NnGradcheck, BatchNorm) {
  BatchNorm2D bn(5);
  gradcheck(bn, rand_input({3, 4, 4, 5}, 11), 3e-2f, 24, 1);
}

TEST(NnGradcheck, LeakyReLU) {
  LeakyReLU relu;
  gradcheck(relu, rand_input({2, 4, 4, 3}, 12));
}

TEST(NnGradcheck, MaxPool) {
  MaxPool2x2 pool;
  gradcheck(pool, rand_input({2, 6, 6, 3}, 13));
}

TEST(NnGradcheck, GlobalAvgPool) {
  GlobalAvgPool pool;
  gradcheck(pool, rand_input({2, 4, 4, 3}, 14));
}

TEST(NnGradcheck, Linear) {
  Rng rng(15);
  Linear lin(12, 7, rng);
  gradcheck(lin, rand_input({4, 12}, 16));
}

TEST(NnGradcheck, ResidualBlockIdentity) {
  Rng rng(17);
  ResidualBlock block(4, 4, 1, ConvEngine::kWinograd, rng);
  gradcheck(block, rand_input({1, 6, 6, 4}, 18), 3e-2f, 24, 4);
}

TEST(NnGradcheck, ResidualBlockProjection) {
  Rng rng(19);
  ResidualBlock block(3, 6, 2, ConvEngine::kWinograd, rng);
  gradcheck(block, rand_input({1, 8, 8, 3}, 20), 3e-2f, 24, 4);
}

// ---------------------------------------------------------------------------

TEST(NnLayers, LeakyReLUForwardValues) {
  LeakyReLU relu(0.01f);
  TensorF x({4});
  x[0] = -2.0f;
  x[1] = 0.0f;
  x[2] = 3.0f;
  x[3] = -0.5f;
  const TensorF y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], -0.02f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 3.0f);
  EXPECT_FLOAT_EQ(y[3], -0.005f);
}

TEST(NnLayers, MaxPoolSelectsMaximum) {
  MaxPool2x2 pool;
  TensorF x({1, 2, 2, 1});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = -1.0f;
  x[3] = 2.0f;
  const TensorF y = pool.forward(x, true);
  EXPECT_EQ(y.size(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  TensorF dy({1, 1, 1, 1});
  dy[0] = 3.0f;
  const TensorF dx = pool.backward(dy);
  EXPECT_FLOAT_EQ(dx[1], 3.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(NnLayers, BatchNormNormalizesTrainingBatch) {
  BatchNorm2D bn(2);
  Rng rng(31);
  TensorF x({4, 3, 3, 2});
  x.fill_uniform(rng, 3.0f, 9.0f);
  const TensorF y = bn.forward(x, true);
  // Per-channel mean ≈ 0, var ≈ 1.
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    const std::int64_t m = y.size() / 2;
    for (std::int64_t i = 0; i < m; ++i) mean += y[i * 2 + c];
    mean /= static_cast<double>(m);
    for (std::int64_t i = 0; i < m; ++i) {
      var += (y[i * 2 + c] - mean) * (y[i * 2 + c] - mean);
    }
    var /= static_cast<double>(m);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(NnLayers, BatchNormEvalUsesRunningStats) {
  BatchNorm2D bn(1);
  Rng rng(33);
  TensorF x({8, 2, 2, 1});
  x.fill_uniform(rng, 4.0f, 6.0f);
  for (int i = 0; i < 150; ++i) bn.forward(x, true);  // converge running stats
  const TensorF y = bn.forward(x, false);
  double mean = 0.0;
  for (std::int64_t i = 0; i < y.size(); ++i) mean += y[i];
  mean /= static_cast<double>(y.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
}

// ---------------------------------------------------------------------------
// Bitwise parity of the branchless, channel-inner elementwise layers with
// the branching, channel-outer loops they replaced (kept here as oracles).

namespace oracle {

TensorF leaky_forward(const TensorF& x, float slope, bool train,
                      std::vector<std::uint8_t>& mask) {
  TensorF y = x;
  if (train) mask.assign(static_cast<std::size_t>(x.size()), 0);
  for (std::int64_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0.0f) {
      y[i] *= slope;
    } else if (train) {
      mask[static_cast<std::size_t>(i)] = 1;
    }
  }
  return y;
}

TensorF leaky_backward(const TensorF& dy, float slope,
                       const std::vector<std::uint8_t>& mask) {
  TensorF dx = dy;
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    if (!mask[static_cast<std::size_t>(i)]) dx[i] *= slope;
  }
  return dx;
}

struct BatchNorm {
  std::int64_t channels;
  float momentum = 0.9f, eps = 1e-5f;
  std::vector<float> gamma, beta, running_mean, running_var, inv_std;
  std::vector<float> dgamma, dbeta;
  TensorF xhat;
  std::int64_t count = 0;

  explicit BatchNorm(std::int64_t c)
      : channels(c),
        gamma(c, 1.0f),
        beta(c, 0.0f),
        running_mean(c, 0.0f),
        running_var(c, 1.0f),
        inv_std(c),
        dgamma(c, 0.0f),
        dbeta(c, 0.0f) {}

  TensorF forward_train(const TensorF& x) {
    const std::int64_t m = x.size() / channels;
    TensorF y({x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
    xhat.reset({x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
    count = m;
    for (std::int64_t c = 0; c < channels; ++c) {
      double mean = 0.0;
      for (std::int64_t i = 0; i < m; ++i) mean += x[i * channels + c];
      mean /= static_cast<double>(m);
      double var = 0.0;
      for (std::int64_t i = 0; i < m; ++i) {
        const double d = x[i * channels + c] - mean;
        var += d * d;
      }
      var /= static_cast<double>(m);
      const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      inv_std[c] = inv;
      running_mean[c] = momentum * running_mean[c] +
                        (1.0f - momentum) * static_cast<float>(mean);
      running_var[c] = momentum * running_var[c] +
                       (1.0f - momentum) * static_cast<float>(var);
      for (std::int64_t i = 0; i < m; ++i) {
        const float xh = (x[i * channels + c] - static_cast<float>(mean)) * inv;
        xhat[i * channels + c] = xh;
        y[i * channels + c] = gamma[c] * xh + beta[c];
      }
    }
    return y;
  }

  TensorF infer(const TensorF& x) const {
    const std::int64_t m = x.size() / channels;
    TensorF y({x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
    for (std::int64_t c = 0; c < channels; ++c) {
      const float inv = 1.0f / std::sqrt(running_var[c] + eps);
      for (std::int64_t i = 0; i < m; ++i) {
        y[i * channels + c] =
            gamma[c] * (x[i * channels + c] - running_mean[c]) * inv + beta[c];
      }
    }
    return y;
  }

  TensorF backward(const TensorF& dy) {
    const std::int64_t m = count;
    TensorF dx({dy.dim(0), dy.dim(1), dy.dim(2), dy.dim(3)});
    for (std::int64_t c = 0; c < channels; ++c) {
      double sum_dy = 0.0;
      double sum_dy_xhat = 0.0;
      for (std::int64_t i = 0; i < m; ++i) {
        const float g = dy[i * channels + c];
        sum_dy += g;
        sum_dy_xhat += g * xhat[i * channels + c];
      }
      dgamma[c] += static_cast<float>(sum_dy_xhat);
      dbeta[c] += static_cast<float>(sum_dy);
      const float inv = inv_std[c];
      const float k1 = static_cast<float>(sum_dy / static_cast<double>(m));
      const float k2 =
          static_cast<float>(sum_dy_xhat / static_cast<double>(m));
      for (std::int64_t i = 0; i < m; ++i) {
        const float g = dy[i * channels + c];
        dx[i * channels + c] =
            gamma[c] * inv * (g - k1 - xhat[i * channels + c] * k2);
      }
    }
    return dx;
  }
};

}  // namespace oracle

/// Random values with IEEE special cases sprinkled in: ±0 and subnormals in
/// every channel; ±inf and NaN only in channels below `inf_channels` (a
/// BatchNorm channel holding one turns wholly NaN, so the rest stay finite
/// to keep real arithmetic under test).
TensorF special_input(std::initializer_list<std::int64_t> dims,
                      unsigned seed, std::int64_t inf_channels) {
  const float finite[] = {0.0f,
                          -0.0f,
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          1e-40f,
                          -3e-39f};
  const float nonfinite[] = {std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN()};
  TensorF x = rand_input(dims, seed);
  const std::int64_t c = x.dim(x.rank() - 1);
  for (std::int64_t i = 0; i < x.size(); i += 5) {
    const std::int64_t k = i / 5;
    if (i % c < inf_channels && k % 4 == 3) {
      x[i] = nonfinite[static_cast<std::size_t>(k / 4) % 3];
    } else {
      x[i] = finite[static_cast<std::size_t>(k) % 6];
    }
  }
  return x;
}

/// Bit-identical, except that any NaN matches any NaN: IEEE 754 leaves
/// which payload an operation on two NaNs returns to the implementation, so
/// a vectorizer that commutes an add may pick the other one.
void expect_same_bits(const TensorF& got, const TensorF& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::int64_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(NnLayers, LeakyReLUBitwiseEqualsBranchingLoops) {
  for (float slope : {0.0f, 0.01f}) {
    SCOPED_TRACE(slope);
    const TensorF x = special_input({2, 5, 5, 7}, 41, 7);
    const TensorF dy = special_input({2, 5, 5, 7}, 42, 7);
    LeakyReLU relu(slope);
    std::vector<std::uint8_t> mask;
    const TensorF want_y = oracle::leaky_forward(x, slope, true, mask);
    // NaN passes through both forms untouched, so memcmp holds even there.
    const TensorF y = relu.forward(x, true);
    ASSERT_EQ(std::memcmp(y.data(), want_y.data(), y.size() * sizeof(float)),
              0);
    const TensorF dx = relu.backward(dy);
    const TensorF want_dx = oracle::leaky_backward(dy, slope, mask);
    ASSERT_EQ(
        std::memcmp(dx.data(), want_dx.data(), dx.size() * sizeof(float)), 0);
    const TensorF yi = relu.infer(x);
    ASSERT_EQ(std::memcmp(yi.data(), want_y.data(), yi.size() * sizeof(float)),
              0);
    const TensorF ye = relu.forward(x, false);
    ASSERT_EQ(std::memcmp(ye.data(), want_y.data(), ye.size() * sizeof(float)),
              0);
  }
}

TEST(NnLayers, LeakyReLURejectsSlopeOutsideUnitInterval) {
  EXPECT_THROW(LeakyReLU(-0.01f), Error);
  EXPECT_THROW(LeakyReLU(1.5f), Error);
  EXPECT_NO_THROW(LeakyReLU(1.0f));
}

TEST(NnLayers, BatchNormBitwiseEqualsChannelOuterLoops) {
  constexpr std::int64_t kC = 13;  // odd: vector bodies plus scalar tails
  BatchNorm2D bn(kC);
  oracle::BatchNorm want(kC);
  Rng rng(43);
  std::vector<Param*> params = bn.params();  // {gamma, beta}
  for (std::int64_t c = 0; c < kC; ++c) {
    want.gamma[c] = params[0]->value[c] = rng.uniform(0.5f, 1.5f);
    want.beta[c] = params[1]->value[c] = rng.uniform(-0.5f, 0.5f);
  }
  // Two training steps move the running statistics off their initial
  // values; the special values keep ±inf and NaN in channels 0 and 1.
  for (int step = 0; step < 2; ++step) {
    SCOPED_TRACE(step);
    const TensorF x = special_input({2, 4, 3, kC}, 50u + step, 2);
    const TensorF dy = special_input({2, 4, 3, kC}, 60u + step, 2);
    expect_same_bits(bn.forward(x, true), want.forward_train(x));
    expect_same_bits(bn.backward(dy), want.backward(dy));
    TensorF dgamma({kC}), dbeta({kC});
    for (std::int64_t c = 0; c < kC; ++c) {
      dgamma[c] = want.dgamma[c];
      dbeta[c] = want.dbeta[c];
    }
    expect_same_bits(params[0]->grad, dgamma);
    expect_same_bits(params[1]->grad, dbeta);
  }
  // Inference over finite running statistics (channels 2..12) and NaN ones.
  const TensorF x = special_input({3, 2, 5, kC}, 70, 2);
  expect_same_bits(bn.infer(x), want.infer(x));
  expect_same_bits(bn.forward(x, false), want.infer(x));
}

TEST(NnLayers, KaimingUniformBounds) {
  Rng rng(35);
  TensorF w({64, 3, 3, 16});
  kaiming_uniform(w, 3 * 3 * 16, rng);
  const float bound = std::sqrt(6.0f / (3 * 3 * 16));
  float mx = 0.0f;
  for (std::int64_t i = 0; i < w.size(); ++i) mx = std::max(mx, std::abs(w[i]));
  EXPECT_LE(mx, bound);
  EXPECT_GT(mx, bound * 0.9f);  // actually fills the range
}

TEST(NnLoss, SoftmaxCrossEntropyKnownValues) {
  TensorF logits({2, 3});
  logits[0] = 10.0f;  // sample 0 strongly predicts class 0
  logits[1] = 0.0f;
  logits[2] = 0.0f;
  logits[3] = 0.0f;  // sample 1 uniform
  logits[4] = 0.0f;
  logits[5] = 0.0f;
  const LossResult res = softmax_cross_entropy(logits, {0, 1});
  EXPECT_NEAR(res.loss, 0.5f * (0.000091f + std::log(3.0f)), 1e-3f);
  EXPECT_EQ(res.correct, 1);  // argmax of uniform row is class 0 ≠ 1
  // Gradient rows sum to zero.
  for (int i = 0; i < 2; ++i) {
    float s = 0.0f;
    for (int j = 0; j < 3; ++j) s += res.dlogits[i * 3 + j];
    EXPECT_NEAR(s, 0.0f, 1e-6f);
  }
}

TEST(NnLoss, GradMatchesFiniteDifference) {
  Rng rng(37);
  TensorF logits({3, 4});
  logits.fill_uniform(rng, -2.0f, 2.0f);
  const std::vector<std::int64_t> labels = {1, 3, 0};
  const LossResult res = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    TensorF lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float want = (softmax_cross_entropy(lp, labels).loss -
                        softmax_cross_entropy(lm, labels).loss) /
                       (2 * eps);
    EXPECT_NEAR(res.dlogits[i], want, 2e-3f) << i;
  }
}

}  // namespace
}  // namespace iwg::nn

// Concrete layers: Conv2D, BatchNorm2D, LeakyReLU, MaxPool2x2, Flatten,
// Linear.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "core/selector.hpp"
#include "nn/layer.hpp"
#include "tensor/conv_shape.hpp"

namespace iwg::nn {

/// Kaiming-uniform initialization (§6.3.1): U(−b, b), b = √(6 / fan_in),
/// the gain for LeakyReLU-style rectifiers.
void kaiming_uniform(TensorF& w, std::int64_t fan_in, Rng& rng);

/// 2-D convolution, NHWC, square filter, stride 1 or 2.
/// Unit-stride layers run on the configured engine (Winograd or GEMM).
/// Stride-2 layers under kWinograd run the same engine through the
/// space-to-depth rewrite (core::conv2d_stride2); under kGemm they keep the
/// scalar implicit-GEMM reference, so the two engines stay independent.
class Conv2D final : public Layer {
 public:
  Conv2D(std::int64_t in_ch, std::int64_t out_ch, std::int64_t fsize,
         std::int64_t stride, std::int64_t pad, ConvEngine engine, Rng& rng,
         std::string label = "conv");
  /// Drops this layer's entries from the global FilterTransformCache — the
  /// weight storage is about to be freed and a later allocation could reuse
  /// the address with unrelated version numbering.
  ~Conv2D() override;

  std::string name() const override { return label_; }
  TensorF forward(const TensorF& x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  /// Mixed-shape batch: every image runs in ONE indirect Γ dispatch
  /// (conv2d_gamma_host_indirect), stride-2 images as their space-to-depth
  /// gathers; stride-2 kGemm layers fall back to the per-image default.
  /// Bitwise identical per image to infer().
  std::vector<TensorF> infer_ragged(
      const std::vector<TensorF>& xs) const override;
  TensorF backward(const TensorF& dy) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::int64_t activation_bytes() const override { return x_cache_.size() * 4; }

  /// Resolves this layer's plan from the context's PlanCache (kWinograd
  /// layers; stride-2 layers tune their rewritten shape) and returns the
  /// output dims.
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override;

  /// The pre-resolved choice, if pretune ran (exposed for tests/reports).
  const std::optional<core::AlgoChoice>& tuned_choice() const {
    return tuned_;
  }

 private:
  ConvShape shape_for(const TensorF& x) const;
  /// The unit-stride shape the engine runs for layer geometry `s`: `s`
  /// itself at stride 1, its space-to-depth rewrite at stride 2.
  ConvShape engine_shape(const ConvShape& s) const;
  /// The pure convolution + bias computation shared by forward and infer.
  TensorF apply(const TensorF& x, const ConvShape& s) const;

  std::string label_;
  std::int64_t fsize_, stride_, pad_;
  ConvEngine engine_;
  Param w_;  // OC,FH,FW,IC
  Param b_;  // OC
  TensorF x_cache_;
  ConvShape shape_;  // geometry of the last forward
  std::optional<core::AlgoChoice> tuned_;  // pre-resolved plan
  ConvShape tuned_shape_;                  // geometry the plan was tuned for
};

/// Batch normalization over (N, H, W) per channel, with running statistics.
class BatchNorm2D final : public Layer {
 public:
  explicit BatchNorm2D(std::int64_t channels, float momentum = 0.9f,
                       float eps = 1e-5f);

  std::string name() const override { return "batchnorm"; }
  TensorF forward(const TensorF& x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(const TensorF& dy) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::int64_t activation_bytes() const override {
    return (xhat_.size() + 2 * channels_) * 4;
  }

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  TensorF running_mean_, running_var_;
  TensorF xhat_;                 // normalized input (cached)
  std::vector<float> inv_std_;   // per channel
  std::int64_t count_ = 0;       // N·H·W of the cached batch
};

/// LeakyReLU activation (§6.3.1), slope 0.01; the slope must lie in [0, 1].
class LeakyReLU final : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.01f);
  std::string name() const override { return "leaky_relu"; }
  TensorF forward(const TensorF& x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(const TensorF& dy) override;
  std::int64_t activation_bytes() const override { return mask_.size(); }

 private:
  float slope_;
  std::vector<std::uint8_t> mask_;
};

/// 2×2 max pooling with stride 2 (VGG down-sampling).
class MaxPool2x2 final : public Layer {
 public:
  std::string name() const override { return "maxpool2x2"; }
  TensorF forward(const TensorF& x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(const TensorF& dy) override;
  std::int64_t activation_bytes() const override { return argmax_.size(); }
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override {
    (void)ctx;
    return Dims4{in.n, in.h / 2, in.w / 2, in.c};
  }

 private:
  std::vector<std::uint8_t> argmax_;  // 0-3 winner per output element
  std::int64_t n_ = 0, ih_ = 0, iw_ = 0, c_ = 0;
};

/// Global average pooling (ResNet head): NHWC → (N, C).
class GlobalAvgPool final : public Layer {
 public:
  std::string name() const override { return "global_avg_pool"; }
  TensorF forward(const TensorF& x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(const TensorF& dy) override;
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override {
    (void)ctx;
    return Dims4{in.n, 1, 1, in.c};
  }

 private:
  std::int64_t n_ = 0, h_ = 0, w_ = 0, c_ = 0;
};

/// NHWC → (N, H·W·C).
class Flatten final : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  TensorF forward(const TensorF& x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(const TensorF& dy) override;
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override {
    (void)ctx;
    return Dims4{in.n, 1, 1, in.h * in.w * in.c};
  }

 private:
  std::int64_t n_ = 0, h_ = 0, w_ = 0, c_ = 0;
};

/// Fully connected layer: (N, D) → (N, M).
class Linear final : public Layer {
 public:
  Linear(std::int64_t in_dim, std::int64_t out_dim, Rng& rng,
         std::string label = "linear");
  std::string name() const override { return label_; }
  TensorF forward(const TensorF& x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(const TensorF& dy) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::int64_t activation_bytes() const override { return x_cache_.size() * 4; }
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override {
    (void)ctx;
    return Dims4{in.n, 1, 1, w_.value.dim(1)};
  }

 private:
  std::string label_;
  Param w_;  // (D, M)
  Param b_;  // (M)
  TensorF x_cache_;
};

}  // namespace iwg::nn

// Model container, residual blocks, and the Experiment-3 model zoo
// (VGG16/19, VGG16x5, VGG16x7, ResNet18/34 — §6.3.1), channel-scaled so the
// convergence experiments run on a CPU-hour budget while keeping the
// architectures' structure (conv stacks, down-sampling style, heads).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace iwg::nn {

/// A plain layer stack with parameter and memory accounting.
class Model {
 public:
  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  TensorF forward(const TensorF& x, bool train);
  /// Inference-only forward: const and safe to run concurrently from many
  /// threads on one Model instance (see Layer::infer). Numerically identical
  /// to `forward(x, false)`.
  TensorF infer(const TensorF& x) const;
  /// Mixed-shape inference: one rank-4 N = 1 tensor per image (spatial
  /// extents may differ). Each layer processes the whole set at once —
  /// Conv2D via one indirect Γ dispatch, everything else per image — and
  /// every output is bitwise identical to infer() on that image alone.
  /// Const and concurrency-safe like infer().
  std::vector<TensorF> infer_ragged(const std::vector<TensorF>& xs) const;
  /// Returns dL/dinput (rarely needed; gradients accumulate in params).
  TensorF backward(const TensorF& dloss);

  /// Graph-build plan pre-resolution (§5.7): propagate the batch geometry
  /// through every layer and resolve each kWinograd conv's plan
  /// via ctx's PlanCache (load a plan DB into the cache first for a "find
  /// once, deploy many" flow). Returns the number of conv layers resolved.
  int pretune(std::int64_t batch, std::int64_t image_size,
              std::int64_t channels, AutotuneContext& ctx);

  std::vector<Param*> params();
  std::int64_t param_count();
  std::int64_t param_bytes() { return param_count() * 4; }
  /// Cached-activation bytes after the last training forward — the analogue
  /// of the "GPU memory" column in Tables 4/5.
  std::int64_t activation_bytes() const;

  std::size_t layer_count() const { return layers_.size(); }
  std::string summary();

 private:
  std::vector<LayerPtr> layers_;
};

/// ResNet basic block: conv-bn-relu-conv-bn (+ projection shortcut when the
/// shape changes) followed by relu. Down-sampling uses stride-2 convolution,
/// which is why ResNet gains less from Im2col-Winograd than VGG (§6.3.2).
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::int64_t in_ch, std::int64_t out_ch, std::int64_t stride,
                ConvEngine engine, Rng& rng);

  std::string name() const override { return "residual"; }
  TensorF forward(const TensorF& x, bool train) override;
  TensorF infer(const TensorF& x) const override;
  TensorF backward(const TensorF& dy) override;
  std::vector<Param*> params() override;
  std::int64_t activation_bytes() const override;
  Dims4 pretune(const Dims4& in, AutotuneContext& ctx) override;

 private:
  std::vector<LayerPtr> main_;  // conv bn relu conv bn
  std::vector<LayerPtr> proj_;  // empty or [conv, bn]
  LayerPtr relu_out_;
  TensorF skip_cache_;
};

struct ModelConfig {
  ConvEngine engine = ConvEngine::kWinograd;
  std::int64_t num_classes = 10;
  std::int64_t image_size = 16;   ///< square inputs, 3 channels
  std::int64_t base_channels = 8; ///< stage-1 width (paper nets use 64)
  unsigned seed = 1234;
};

/// VGG-style network. depth ∈ {16, 19}; filter_size applies to every conv
/// (VGG16x5 ⇒ 5); first4_filter overrides the first 4 convs (VGG16x7 ⇒ 7).
Model make_vgg(int depth, const ModelConfig& cfg, int filter_size = 3,
               int first4_filter = 0);

/// ResNet-style network. depth ∈ {18, 34}.
Model make_resnet(int depth, const ModelConfig& cfg);

}  // namespace iwg::nn

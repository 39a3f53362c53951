// Minimal FP32 training framework (the Dragon-Alpha / PyTorch stand-in for
// Experiment 3).
//
// Layers own their parameters and cached activations; backward returns the
// input gradient and accumulates parameter gradients. Convolutions run on a
// selectable engine — Im2col-Winograd ("Alpha") or implicit GEMM (the
// baseline) — which is the only difference between the two training
// configurations the experiment compares.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace iwg::sim {
struct DeviceProfile;
}
namespace iwg::core {
class PlanCache;
}

namespace iwg::nn {

/// A trainable parameter with its gradient accumulator.
///
/// `grad` stays empty until the first accumulation or zero_grad(), so an
/// inference-only model carries no gradient storage; an empty `grad` reads
/// as zero.
///
/// `version` must be bumped by anything that mutates `value` after
/// construction (the optimizers, weight loading): it keys the host engine's
/// FilterTransformCache, so a stale transform can never be served after an
/// update.
struct Param {
  std::string name;
  TensorF value;
  TensorF grad;
  std::uint64_t version = 0;

  /// `grad`, allocated as zeros shaped like `value` on first use.
  TensorF& ensure_grad() {
    if (grad.empty()) {
      std::vector<std::int64_t> dims(static_cast<std::size_t>(value.rank()));
      for (int i = 0; i < value.rank(); ++i) dims[i] = value.dim(i);
      grad.reset(dims);
    }
    return grad;
  }
  void zero_grad() { ensure_grad().fill(0.0f); }
};

/// Which convolution algorithm the framework uses (§6.3: Alpha integrates
/// Im2col-Winograd for unit-stride convolution and deconvolution). kWinograd
/// also runs stride-2 forward convolutions on the Γ engine through the
/// space-to-depth rewrite; kGemm is implicit GEMM throughout.
enum class ConvEngine { kWinograd, kGemm };

/// NHWC activation dims used for graph-build shape propagation. Layers that
/// flatten to 2-D keep n and fold everything into c (h = w = 1).
struct Dims4 {
  std::int64_t n = 1;
  std::int64_t h = 1;
  std::int64_t w = 1;
  std::int64_t c = 1;
};

/// Graph-build plan pre-resolution (§5.7 "find once" at build time): walks
/// the model with symbolic shapes so every Winograd convolution (stride-2
/// layers through their rewritten unit-stride shape) can tune — or load —
/// its plan from a PlanCache before the first batch.
struct AutotuneContext {
  const sim::DeviceProfile* dev = nullptr;  ///< required
  core::PlanCache* cache = nullptr;         ///< nullptr → PlanCache::global()
  int samples = 2;                          ///< profiling fidelity
  int max_candidates = 32;                  ///< TuningBudget per layer
  int resolved = 0;                         ///< conv layers resolved (output)
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;
  /// Forward pass; `train` enables caching for backward and batch-norm
  /// statistics updates.
  virtual TensorF forward(const TensorF& x, bool train) = 0;
  /// Inference-only forward: semantically identical to
  /// `forward(x, /*train=*/false)` but `const` and free of hidden mutable
  /// state (no activation caches, no running-statistics updates, no
  /// remembered geometry), so one layer instance may serve many threads
  /// concurrently — the contract the serving subsystem's worker pool
  /// relies on.
  virtual TensorF infer(const TensorF& x) const = 0;
  /// Ragged inference: one independent rank-4 N = 1 tensor per image, whose
  /// spatial extents may differ between entries. The default runs infer()
  /// per image — the batch-1 baseline — so every layer supports mixed-shape
  /// batches; layers with a fused mixed-shape path (Conv2D's indirect Γ
  /// dispatch) override it. Outputs must be bitwise identical per image to
  /// infer() on that image alone. Same const/concurrency contract as
  /// infer().
  virtual std::vector<TensorF> infer_ragged(
      const std::vector<TensorF>& xs) const {
    std::vector<TensorF> ys;
    ys.reserve(xs.size());
    for (const TensorF& x : xs) ys.push_back(infer(x));
    return ys;
  }
  /// Backward pass: consumes dL/dy, returns dL/dx, accumulates param grads.
  virtual TensorF backward(const TensorF& dy) = 0;

  virtual std::vector<Param*> params() { return {}; }

  /// Shape propagation for graph-build pre-resolution: given input NHWC
  /// dims, return output dims. Convolution layers additionally resolve
  /// their execution plan through `ctx` (tuning on miss, hitting the cache
  /// — possibly loaded from a plan DB — otherwise).
  virtual Dims4 pretune(const Dims4& in, AutotuneContext& ctx) {
    (void)ctx;
    return in;
  }

  /// Bytes of cached activations after the last training forward (for the
  /// Table 4/5 memory accounting).
  virtual std::int64_t activation_bytes() const { return 0; }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace iwg::nn

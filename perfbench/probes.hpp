// Per-layer probes of the traced run: a layer-by-layer replay of the
// paper's networks through the public nn layer classes, and direct timings
// of the core, reference and common entry points on the networks' shapes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "tensor/conv_shape.hpp"

namespace perfbench {

enum class Part { kConvUnit, kConvStrided, kBn, kAct, kPool, kResidualAdd, kHead };
inline constexpr int kParts = 7;
const char* part_name(Part p);  ///< "conv_unit", "conv_strided", …

using PartMs = std::array<double, kParts>;

/// One convolution of a network, with the input geometry it sees.
struct ConvLayer {
  iwg::ConvShape s;  ///< stride-1 view: oh()/ow() are wrong when stride 2
  std::int64_t stride = 1;
  const iwg::nn::Param* w = nullptr;
  bool winograd = true;
  std::int64_t oh() const { return (s.ih + 2 * s.ph - s.fh) / stride + 1; }
  std::int64_t ow() const { return (s.iw + 2 * s.pw - s.fw) / stride + 1; }
  double flops() const {
    return 2.0 * static_cast<double>(s.n * s.oc * oh() * ow() * s.fh * s.fw *
                                     s.ic);
  }
  /// Input, filter and output bytes, each touched once.
  double bytes() const {
    return 4.0 * static_cast<double>(s.n * s.ih * s.iw * s.ic +
                                     s.oc * s.fh * s.fw * s.ic +
                                     s.n * oh() * ow() * s.oc);
  }
};

/// Twin of nn::make_vgg(16) / nn::make_resnet(18) built from the public
/// layer classes in the same order, so it draws the same weights from the
/// same seed, and Model::infer's output can be checked bit for bit against
/// the replay's.
class Replay {
 public:
  static Replay vgg16(const iwg::nn::ModelConfig& cfg);
  static Replay resnet18(const iwg::nn::ModelConfig& cfg);

  /// Runs every layer in model order, adding each call's wall time (ms) to
  /// its part, and collecting conv geometry when `convs` is non-null.
  iwg::TensorF run(const iwg::TensorF& x, PartMs& part_ms,
                   std::vector<ConvLayer>* convs = nullptr) const;

 private:
  struct Op {
    Part part;
    iwg::nn::LayerPtr layer;
    std::int64_t stride = 1;
    std::int64_t pad = 0;
    const iwg::nn::Param* w = nullptr;  ///< conv weights
  };
  struct Block {
    std::vector<Op> main, proj;  ///< proj only in residual blocks
    bool residual = false;
  };
  void layer(Part part, iwg::nn::LayerPtr l);
  void conv(std::int64_t in, std::int64_t out, std::int64_t f,
            std::int64_t stride, iwg::nn::ConvEngine engine, iwg::Rng& rng,
            std::vector<Op>& into);

  std::vector<Block> blocks_;
  bool winograd_ = true;
};

/// Model::infer against the replay, interleaved `reps` times.
struct LayerProbe {
  PartMs part_ms{};        ///< mean per model call
  double infer_ms = 0.0;   ///< mean Model::infer per call
  std::int64_t reps = 0;
  bool bitwise = true;     ///< replay output == Model::infer output
  std::vector<ConvLayer> convs;
};
LayerProbe probe_layers(const iwg::nn::Model& model, const Replay& replay,
                        const iwg::TensorF& x, int reps);

/// Median over reps of the summed time of one entry point across shapes.
struct ShapeProbe {
  double ms = 0.0;
  double flops = 0.0;  ///< computed from the shapes
  double bytes = 0.0;  ///< computed from the shapes
  std::int64_t reps = 0;
  double gflops() const { return ms > 0 ? flops / ms / 1e6 : 0.0; }
  double gbps() const { return ms > 0 ? bytes / ms / 1e6 : 0.0; }
};
/// core::conv2d on every unit-stride conv, filter transforms cached.
ShapeProbe probe_gamma(const std::vector<ConvLayer>& convs, int reps);
/// core::transform_filter_host for every Γ segment of every unit-stride conv.
ShapeProbe probe_filter_transform(const std::vector<ConvLayer>& convs,
                                  int reps);
/// ref::conv2d_implicit_gemm_strided on every stride-2 conv.
ShapeProbe probe_strided(const std::vector<ConvLayer>& convs, int reps);
/// core::deconv2d on every unit-stride conv (training's backward-data).
ShapeProbe probe_deconv(const std::vector<ConvLayer>& convs, int reps);
/// core::conv2d_filter_grad_winograd on every unit-stride conv.
ShapeProbe probe_filter_grad(const std::vector<ConvLayer>& convs, int reps);

/// Median round trip (µs) of an empty-body parallel_for on the global pool
/// with one index per party.
double probe_parallel_for_us(int reps);

/// Parties of a global-pool parallel_for: workers plus the caller.
std::int64_t pool_parties();

/// Largest relative deviation max|a − b| / max(1, max|b|).
double rel_error(const iwg::TensorF& a, const iwg::TensorF& b);
bool bitwise_equal(const iwg::TensorF& a, const iwg::TensorF& b);

/// Uniform [-1, 1) NHWC tensor.
iwg::TensorF random_tensor(const std::vector<std::int64_t>& dims,
                           std::uint64_t seed);

}  // namespace perfbench

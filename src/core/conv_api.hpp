// Public convolution API of the library.
//
// Three execution paths share one boundary plan (§5.5):
//   * conv2d / deconv2d        — host engine (training, accuracy studies);
//                                 conv2d_stride2 maps stride-2 layers onto it
//   * conv2d_sim / deconv2d_sim— functional SIMT execution (validation)
//   * profile_conv2d           — sampled counters + analytic time estimate
//                                 on a device profile (performance studies)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/gamma_config.hpp"
#include "core/gamma_kernel.hpp"
#include "core/gemm_kernel.hpp"
#include "tensor/conv_shape.hpp"
#include "tensor/tensor.hpp"

namespace iwg::core {

class FilterTransformCache;

struct ConvOptions {
  bool use_winograd = true;  ///< false: pure implicit-GEMM convolution
  bool allow_ruse = true;    ///< §5.4 overlap-reuse variants where profitable
  bool allow_c64 = false;    ///< §5.6 Γ^c64 (channels must be ≥ 64-friendly)
  bool trace = true;  ///< false: suppress span emission even when IWG_TRACE on
  /// Cross-call reuse of transformed filters ĝ. Leave the cache null for
  /// convolutions against transient weights; `src/nn` points it at
  /// FilterTransformCache::global() with the parameter's bumped version so a
  /// transform is computed once per (weights version, Γ geometry).
  FilterTransformCache* filter_cache = nullptr;
  std::uint64_t weights_version = 0;  ///< key alongside the weights address
};

/// Boundary plan for a shape under the default priority lists.
std::vector<Segment> plan_for(const ConvShape& s, const ConvOptions& opts = {});

/// Boundary plan that uses exactly `primary` for the divisible prefix and
/// GEMM for the remainder (benchmarking a specific kernel variant).
std::vector<Segment> plan_single(const ConvShape& s, const GammaConfig& primary);

/// Unit-stride 2-D convolution, NHWC, host engine.
TensorF conv2d(const TensorF& x, const TensorF& w, const ConvShape& s,
               const ConvOptions& opts = {});

/// Same, but executing an explicit boundary plan (e.g. a tuned plan from
/// the selector/plan-cache subsystem) instead of the default priorities.
/// `opts` contributes only the filter-cache/trace knobs (the plan already
/// fixes the kernel choices).
TensorF conv2d(const TensorF& x, const TensorF& w, const ConvShape& s,
               const std::vector<Segment>& plan, const ConvOptions& opts = {});

/// Stride-2 convolution through the unit-stride engine by space-to-depth
/// (DWM, Huang et al. 2020). A stride-2 FH×FW conv over x equals a pad-0,
/// unit-stride ⌈FH/2⌉×⌈FW/2⌉ conv over the polyphase gather
///   x'[n, k, j, (p, q, c)] = x[n, 2k + p − ph, 2j + q − pw, c]
/// (zero outside the image) with the filter rearranged as
///   w'[oc, a, b, (p, q, c)] = w[oc, 2a + p, 2b + q, c]
/// (zero where 2a + p ≥ FH or 2b + q ≥ FW). Each axis has P = min(2, F)
/// phases, so a 1×1 filter needs no rearrangement: the gather is a
/// subsample and w' = w. `s` is the layer geometry in the stride-1 view the
/// layers use (its oh()/ow() are not the stride-2 extents).
///
/// The unit-stride shape the rewrite runs: N, OH + ⌈FH/2⌉ − 1,
/// OW + ⌈FW/2⌉ − 1, P_h·P_w·IC → OC, ⌈FH/2⌉×⌈FW/2⌉ filter, pad 0, where
/// OH = (IH + 2ph − FH)/2 + 1. Its oh()/ow() are the stride-2 extents.
ConvShape space_to_depth_shape(const ConvShape& s);

/// Gathers x' for the NHWC input at `x` (s.n·s.ih·s.iw·s.ic floats) into
/// `dst`, which holds space_to_depth_shape(s) NHWC input floats.
void space_to_depth_input(const float* x, const ConvShape& s, float* dst);

/// w' for an OC,FH,FW,IC filter.
TensorF space_to_depth_filter(const TensorF& w);

/// w' as the engine reads it: from `cache` under (w, version,
/// FilterKind::kSpaceToDepth) when a cache is given, computed otherwise;
/// for a 1×1 filter, `w` itself (not owned).
std::shared_ptr<const TensorF> space_to_depth_filter(
    const TensorF& w, FilterTransformCache* cache, std::uint64_t version);

/// The stride-2 convolution: gathers x', runs conv2d_gamma_host on the
/// rewritten shape with the default plan (or `plan`, which must cover
/// space_to_depth_shape(s)), and keys w' and its ĝ on the original weights.
TensorF conv2d_stride2(const TensorF& x, const TensorF& w, const ConvShape& s,
                       const ConvOptions& opts = {});
TensorF conv2d_stride2(const TensorF& x, const TensorF& w, const ConvShape& s,
                       const std::vector<Segment>& plan,
                       const ConvOptions& opts = {});

/// Backward-data / transposed convolution, NHWC, host engine.
TensorF deconv2d(const TensorF& dy, const TensorF& w, const ConvShape& s,
                 const ConvOptions& opts = {});

/// Functional execution on the SIMT model (Γ kernels + GEMM-tail kernel).
TensorF conv2d_sim(const TensorF& x, const TensorF& w, const ConvShape& s,
                   const std::vector<Segment>& plan);
TensorF deconv2d_sim(const TensorF& dy, const TensorF& w, const ConvShape& s,
                     const std::vector<Segment>& plan);

/// Performance report for one convolution on a device profile.
struct ConvPerfReport {
  double time_s = 0.0;       ///< kernel time (excl. filter transposition)
  double gflops = 0.0;       ///< the paper's metric (kernel time only, '*')
  double transpose_s = 0.0;  ///< filter transposition cost (§5.1)
  sim::LaunchStats stats;    ///< merged counters of all segments
  std::vector<sim::PerfEstimate> segments;

  double time_with_transpose() const { return time_s + transpose_s; }
  double gflops_with_transpose(double flops) const {
    const double t = time_with_transpose();
    return t > 0.0 ? flops / t / 1e9 : 0.0;
  }
};

/// Profile the Im2col-Winograd plan (address-only buffers, sampled blocks).
ConvPerfReport profile_conv2d(const ConvShape& s,
                              const sim::DeviceProfile& dev,
                              const std::vector<Segment>& plan,
                              int max_samples = 6);

/// Profile the implicit-GEMM baseline in the given layout.
ConvPerfReport profile_gemm_conv2d(const ConvShape& s,
                                   const sim::DeviceProfile& dev,
                                   GemmLayout layout, int max_samples = 6);

}  // namespace iwg::core

// Host (CPU) execution engine for Im2col-Winograd.
//
// Same mathematics and FP32 accumulation structure as the GPU kernels —
// 1-D Winograd per filter row, elementwise accumulation over (FH, IC) in the
// α-state domain, one output transform per tile — organized for CPU
// efficiency:
//
//   * transformed filters ĝ come from the FilterTransformCache (or a
//     per-call memo), so a boundary plan — and, through `src/nn`, a whole
//     optimizer step — transforms filters once per (weights version, α, r)
//     instead of once per segment execution;
//   * each (image, tile-column) task walks all OH output rows with a ring
//     of the last FH transformed input rows, so the α·IC input transform of
//     a row is computed once and reused by every filter row that consumes
//     it — the host analogue of the paper's §5.4 overlap reuse (the old
//     row-major order re-transformed each input row up to FH times);
//   * per-task scratch lives in the thread-local ScratchArena (no heap
//     churn inside parallel_for bodies), and the inner ĝ·d̂ accumulation is
//     a 4-way-unrolled contiguous axpy the compiler vectorizes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/filter_cache.hpp"
#include "core/gamma_config.hpp"
#include "tensor/conv_shape.hpp"
#include "tensor/tensor.hpp"

namespace iwg {
struct WinogradPlan;
}

namespace iwg::core {

struct HostKernels;

namespace detail {

/// One image slot of a Γ dispatch, dense or indirect. `rows` is the row
/// indirection: rows[ihp + ph] is input row ihp (an IW·IC NHWC slice),
/// nullptr for rows inside the zero padding — null is the shared zero row
/// the host kernels already understand (transform_cols reads a null tap as
/// zeros, axpy_rank1_multi skips null d̂ rows), so padding is an address,
/// never materialized storage. Table length is ih + 2·ph.
struct ImageTask {
  const float* const* rows = nullptr;
  float* y = nullptr;  ///< OH×OW×OC output base for this image
  std::int64_t ih = 0;
  std::int64_t iw = 0;
  std::int64_t oh = 0;
  std::int64_t ow = 0;
};

/// One (image, tile-column) Γ task: the sliding-window ring over OH row
/// blocks. Shared verbatim by the dense segment entry points and
/// conv2d_gamma_host_indirect, so the two paths produce bitwise-identical
/// outputs per image by construction. `geom` contributes the fields every
/// image of a dispatch shares (ic/oc/fh/ph/pw); per-image extents live in
/// `img`.
void gamma_tile_column(const ImageTask& img, const ConvShape& geom,
                       const GammaConfig& cfg, const WinogradPlan& plan,
                       const float* ghat, const HostKernels& hk,
                       std::int64_t ow_start, std::int64_t tw);

/// One output row of the implicit-GEMM boundary tail, same sharing story.
void gemm_row(const ImageTask& img, const ConvShape& geom, const float* w,
              const HostKernels& hk, std::int64_t hi, std::int64_t ow_start,
              std::int64_t ow_len);

/// Fill a row table (length ih + 2·ph) for a densely stored image: in-bounds
/// rows point into `x`, padding rows stay nullptr.
void fill_row_table(const float** rows, const float* x, std::int64_t ih,
                    std::int64_t iw, std::int64_t ic, std::int64_t ph);

}  // namespace detail

/// How the host engine obtains (and possibly reuses) transformed filters.
/// Default-constructed: no cross-call cache — transforms are still shared
/// across the segments of one call, but recomputed per call. `src/nn`
/// threads the global cache plus the parameter's bumped version through
/// here so transforms survive across forward/backward and across steps.
struct FilterCacheRef {
  FilterTransformCache* cache = nullptr;  ///< nullptr: per-call reuse only
  std::uint64_t version = 0;              ///< weights version (cache key)
  const void* key = nullptr;              ///< nullptr: use w.data()
  FilterKind kind = FilterKind::kForward;  ///< which derived filter of `key`
};

/// Convolution over one OW segment with Γα(n,r); writes into `y` in place.
/// `w` is the original OC,FH,FW,IC filter (transformed internally).
void conv2d_gamma_host_segment(const TensorF& x, const TensorF& w,
                               const ConvShape& s, const GammaConfig& cfg,
                               std::int64_t ow_start, std::int64_t ow_len,
                               TensorF& y);

/// Same, but against pre-transformed filters ĝ[fh][t][ic][oc] (from
/// transform_filter_host / the FilterTransformCache).
void conv2d_gamma_host_segment_pretransformed(
    const TensorF& x, const float* ghat, const ConvShape& s,
    const GammaConfig& cfg, std::int64_t ow_start, std::int64_t ow_len,
    TensorF& y);

/// Implicit-GEMM convolution over one OW segment (the §5.5 boundary tail);
/// writes into `y` in place.
void conv2d_gemm_host_segment(const TensorF& x, const TensorF& w,
                              const ConvShape& s, std::int64_t ow_start,
                              std::int64_t ow_len, TensorF& y);

/// Full convolution: §5.5 boundary plan over OW, Γ kernels + GEMM tail.
TensorF conv2d_gamma_host(const TensorF& x, const TensorF& w,
                          const ConvShape& s,
                          const std::vector<Segment>& plan,
                          const FilterCacheRef& fc = {});

/// Backward-data (deconvolution) through the same engine: the filter
/// rotation/channel swap is folded into the filter transform. A cache ref
/// is keyed on the *original* weights with FilterKind::kDeconv.
TensorF deconv2d_gamma_host(const TensorF& dy, const TensorF& w,
                            const ConvShape& s,
                            const std::vector<Segment>& plan,
                            const FilterCacheRef& fc = {});

/// Filter gradient via 1-D Winograd — an extension beyond the paper (which
/// computes filter gradients with standard algorithms): the weight-gradient
/// correlation dW[oc,fh,j,ic] = Σ dY[...]·X[...+j] is itself a 1-D
/// correlation along W with the dY row acting as the filter, so F(fw, m)
/// with m = α+1−fw applies. Requires 2 ≤ fw ≤ 9; α is 8 for fw ≤ 7 and 16
/// otherwise. Zero-padded tail tiles handle OW % m ≠ 0.
TensorF conv2d_filter_grad_winograd(const TensorF& x, const TensorF& dy,
                                    const ConvShape& s);

}  // namespace iwg::core

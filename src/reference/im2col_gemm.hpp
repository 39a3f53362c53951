// Im2col + GEMM convolution (the cuDNN Implicit_Precomp_GEMM stand-in).
//
// Numerically this matches a GEMM-lowered convolution: FP32 accumulation in
// k-order (fh, fw, ic), which is what gives standard convolution its larger
// rounding error at big GK compared to Winograd (Table 3's CuGEMM columns).
#pragma once

#include "tensor/conv_shape.hpp"
#include "tensor/tensor.hpp"

namespace iwg::ref {

/// Explicit im2col: X (NHWC) → B ∈ R^{GM×GK}, GM = N·OH·OW,
/// GK = FH·FW·IC, column order (fh, fw, ic) to match the filter layout.
TensorF im2col(const TensorF& x, const ConvShape& s);

/// Blocked single-precision GEMM: C (m×n) = A (m×k) · B^T where B is (n×k).
/// Both inputs row-major; this is the "A times transposed B" shape that both
/// convolution lowerings need (filter rows are contiguous in k).
void sgemm_abt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
               const float* b, float* c);

/// Convolution via explicit im2col + GEMM.
TensorF conv2d_im2col_gemm(const TensorF& x, const TensorF& w,
                           const ConvShape& s);

/// Round a float to TF32 precision (10-bit mantissa, round-to-nearest-even).
float tf32_round(float v);

/// Im2col + GEMM with TF32 operand rounding and FP32 accumulation — the
/// numerics of cuDNN's Ampere/Ada tensor-core Implicit_Precomp_GEMM, which
/// is what the paper's CuGEMM error magnitudes (1e-5–1e-4) correspond to;
/// a strict-FP32 GEMM would sit near 1e-6. Both variants are provided so
/// the accuracy benches can report them side by side.
TensorF conv2d_im2col_gemm_tf32(const TensorF& x, const TensorF& w,
                                const ConvShape& s);

/// Implicit version (no materialized B; the index mapping is applied on the
/// fly) — same numerics, no workspace; used as the boundary-tail GEMM.
TensorF conv2d_implicit_gemm(const TensorF& x, const TensorF& w,
                             const ConvShape& s);

/// Strided convolution via implicit GEMM: the kGemm engine's stride-2 path
/// and the independent reference for core::conv2d_stride2, which runs
/// stride-2 layers on the Im2col-Winograd engine by space-to-depth.
TensorF conv2d_implicit_gemm_strided(const TensorF& x, const TensorF& w,
                                     const ConvShape& s, std::int64_t sh,
                                     std::int64_t sw);

/// Transposed convolution via the deconv-filter identity + implicit GEMM.
TensorF deconv2d_implicit_gemm(const TensorF& dy, const TensorF& w,
                               const ConvShape& s);

/// Filter gradient via GEMM lowering (used by the training framework).
TensorF conv2d_filter_grad_gemm(const TensorF& x, const TensorF& dy,
                                const ConvShape& s);

}  // namespace iwg::ref

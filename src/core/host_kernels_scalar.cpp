// Scalar reference table — the semantic ground truth every SIMD table is
// tested against, and the fallback engine on CPUs without AVX2/ASIMD.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/core/CMakeLists.txt): the bitwise and ULP contracts in
// host_kernels.hpp are stated relative to a reference that performs one
// rounding per multiply and per add, so the compiler must not fuse the
// scalar code into FMAs behind our back (GCC contracts by default, and
// aarch64 has baseline FMA that would otherwise change the reference).
#include "core/host_kernels.hpp"

#include <cstring>

namespace iwg::core::detail {

namespace {

// Dense: every (i, e) term is added, including zero coefficients and null
// rows. A null row contributes me·0.0f — note the multiply is kept (its
// ±0.0f sign depends on me's sign), so the per-element op sequence is
// identical to a vector table that folds a zero register in. Skipping would
// be cheaper here but costs the SIMD tables a branch per lane-block, and
// the bitwise contract requires one shared sequence.
void transform_cols_scalar(const float* m, int rows_n, int cols,
                           const float* const* rows, std::int64_t nc,
                           float* dst, std::int64_t dst_stride) {
  for (int i = 0; i < rows_n; ++i) {
    float* __restrict drow = dst + static_cast<std::int64_t>(i) * dst_stride;
    for (std::int64_t c = 0; c < nc; ++c) drow[c] = 0.0f;
    for (int e = 0; e < cols; ++e) {
      const float me = m[static_cast<std::size_t>(i) * cols + e];
      if (rows[e] != nullptr) {
        const float* __restrict src = rows[e];
        for (std::int64_t c = 0; c < nc; ++c) drow[c] += me * src[c];
      } else {
        const float z = me * 0.0f;
        for (std::int64_t c = 0; c < nc; ++c) drow[c] += z;
      }
    }
  }
}

// Half a k row of a full ĝ panel as a GCC/Clang generic vector of four
// lanes (one SSE or ASIMD register; elsewhere the compiler splits it).
// Its per-lane multiply and add are still one IEEE rounding each — this TU
// is -ffp-contract=off. Plain loops over the 8-wide panels run at half
// this speed: GCC vectorizes them along k, with lane shuffles.
using Lanes = float __attribute__((vector_size(4 * sizeof(float))));

inline Lanes load4(const float* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

// Per element: m, then each d[k]·ĝ term added in ascending k, one rounding
// per multiply and per add. Two panels per pass keep four independent add
// chains per lane; then a single panel; then the ragged last panel
// (ghat_panel_width columns, that many floats per k) in plain code.
void axpy_rank1_scalar(const float* d, const float* g, float* m,
                       std::int64_t kc, std::int64_t nj) {
  std::int64_t j = 0;
  for (; j + 2 * kGhatPanel <= nj; j += 2 * kGhatPanel) {
    const float* gp0 = g + ghat_index(0, j, kc, nj);
    const float* gp1 = g + ghat_index(0, j + kGhatPanel, kc, nj);
    Lanes a0 = load4(m + j), a1 = load4(m + j + 4);
    Lanes a2 = load4(m + j + 8), a3 = load4(m + j + 12);
    for (std::int64_t k = 0; k < kc; ++k) {
      const float dv = d[k];
      const std::int64_t o = k * kGhatPanel;
      a0 += dv * load4(gp0 + o);
      a1 += dv * load4(gp0 + o + 4);
      a2 += dv * load4(gp1 + o);
      a3 += dv * load4(gp1 + o + 4);
    }
    store4(m + j, a0);
    store4(m + j + 4, a1);
    store4(m + j + 8, a2);
    store4(m + j + 12, a3);
  }
  for (; j + kGhatPanel <= nj; j += kGhatPanel) {
    const float* gp = g + ghat_index(0, j, kc, nj);
    Lanes a0 = load4(m + j), a1 = load4(m + j + 4);
    for (std::int64_t k = 0; k < kc; ++k) {
      const float* gr = gp + k * kGhatPanel;
      a0 += d[k] * load4(gr);
      a1 += d[k] * load4(gr + 4);
    }
    store4(m + j, a0);
    store4(m + j + 4, a1);
  }
  if (j == nj) return;
  const std::int64_t w = nj - j;
  const float* gp = g + ghat_index(0, j, kc, nj);
  for (std::int64_t c = 0; c < w; ++c) {
    float acc = m[j + c];
    for (std::int64_t k = 0; k < kc; ++k) acc += d[k] * gp[k * w + c];
    m[j + c] = acc;
  }
}

// The reference for the blocked form is literally the unblocked kernel per
// row: blocking is a vector-ISA register trick, not a semantic change.
void axpy_rank1_multi_scalar(const float* const* ds, const float* g,
                             float* const* ms, int rows, std::int64_t kc,
                             std::int64_t nj) {
  for (int r = 0; r < rows; ++r) {
    if (ds[r] != nullptr) axpy_rank1_scalar(ds[r], g, ms[r], kc, nj);
  }
}

void saxpy_scalar(float a, const float* __restrict x, float* __restrict y,
                  std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) y[j] += a * x[j];
}

// Dense for the same reason as transform_cols: zero A^T entries are folded
// in, keeping one op sequence across every table.
void out_transform_scalar(const float* at, int alpha, const float* m,
                          std::int64_t mstride, float* __restrict y,
                          std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) y[j] = 0.0f;
  for (int t = 0; t < alpha; ++t) {
    const float a = at[t];
    const float* __restrict mrow = m + static_cast<std::int64_t>(t) * mstride;
    for (std::int64_t j = 0; j < n; ++j) y[j] += a * mrow[j];
  }
}

float dot_scalar(const float* a, const float* b, std::int64_t n) {
  float acc = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) acc += a[j] * b[j];
  return acc;
}

}  // namespace

const HostKernels& host_kernels_scalar() {
  static const HostKernels table = {
      transform_cols_scalar, axpy_rank1_scalar, axpy_rank1_multi_scalar,
      saxpy_scalar,          out_transform_scalar,
      dot_scalar,            "scalar",
      HostIsa::kScalar,
  };
  return table;
}

}  // namespace iwg::core::detail

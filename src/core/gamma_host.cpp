#include "core/gamma_host.hpp"

#include <algorithm>
#include <utility>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/filter_cache.hpp"
#include "core/host_kernels.hpp"
#include "tensor/layout.hpp"
#include "winograd/plan.hpp"

namespace iwg::core {

namespace detail {

void fill_row_table(const float** rows, const float* x, std::int64_t ih,
                    std::int64_t iw, std::int64_t ic, std::int64_t ph) {
  for (std::int64_t ihp = -ph; ihp < ih + ph; ++ihp) {
    rows[ihp + ph] =
        (ihp >= 0 && ihp < ih) ? x + ihp * iw * ic : nullptr;
  }
}

// One (image, tile column) task; it walks the OH output rows in blocks of
// kRowBlock with a ring of the transformed input rows the block can see
// (slot = ihp mod ring_rows), so d̂(ihp) is computed once and reused by
// every filter row that reads it. Row-blocking is what lets the
// accumulation run through axpy_rank1_multi: the kRowBlock output rows of
// a block consume the same ĝ[fh][t] planes, so the blocked kernel loads
// each ĝ vector once and feeds kRowBlock FMA chains with it — a single
// rank-1 update is load-bound at one ĝ load per FMA and leaves the FMA
// units half idle.
// 16 output rows per block = two octet passes of the 8-row kernel. The
// block size sets how often ĝ is streamed from L2 (once per block), and
// the second octet of a block reuses the (fh, t) plane the first octet
// just pulled into L1 — at 64×64 channels ĝ is ~0.5 MB per segment, so
// halving the passes is worth more than the larger macc footprint.
//
// Input rows arrive exclusively through img.rows: the dense path points the
// table into a batch tensor, the indirect path into per-image buffers, and
// padding rows are nullptr either way — so the ring, the kernels, and every
// accumulation order are identical for both callers.
void gamma_tile_column(const ImageTask& img, const ConvShape& geom,
                       const GammaConfig& cfg, const WinogradPlan& plan,
                       const float* ghat, const HostKernels& hk,
                       std::int64_t ow_start, std::int64_t tw) {
  const int alpha = cfg.alpha;
  const int n_out = cfg.n;
  const float* bt = plan.bt_f.data();
  const std::int64_t dstride = static_cast<std::int64_t>(alpha) * geom.ic;
  const std::int64_t gstride = geom.ic * geom.oc;  // one ĝ[fh][t] plane
  constexpr std::int64_t kRowBlock = 16;
  const std::int64_t ring_rows = geom.fh + kRowBlock - 1;
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  float* ring =
      arena.alloc_floats(static_cast<std::size_t>(ring_rows * dstride));
  float* macc = arena.alloc_floats(
      static_cast<std::size_t>(kRowBlock * alpha * geom.oc));
  const std::int64_t iw0 = ow_start + tw * n_out - geom.pw;
  // The α taps of one tile are NHWC row slices IC floats apart: the
  // transform runs lane-parallel over channels, in-bounds taps as
  // contiguous loads, padding taps as null rows (DESIGN §8).
  const float* taps[16];
  std::int64_t next_row = -geom.ph;  // next input row to transform
  for (std::int64_t hi0 = 0; hi0 < img.oh; hi0 += kRowBlock) {
    const std::int64_t rb = std::min(kRowBlock, img.oh - hi0);
    const std::int64_t win_hi = hi0 + rb - 1 - geom.ph + geom.fh;  // excl.
    for (; next_row < win_hi; ++next_row) {
      const float* xrow = img.rows[next_row + geom.ph];
      if (xrow == nullptr) continue;  // zero padding
      float* slot = ring + (next_row % ring_rows) * dstride;
      for (int e = 0; e < alpha; ++e) {
        const std::int64_t iw = iw0 + e;
        taps[e] = (iw >= 0 && iw < img.iw) ? xrow + iw * geom.ic : nullptr;
      }
      hk.transform_cols(bt, alpha, alpha, taps, geom.ic, slot, geom.ic);
    }
    // State-domain accumulation: per filter row, α blocked rank-1
    // updates (rb×IC)·(IC×OC); output rows whose input row falls in the
    // zero padding pass a null d̂ and are skipped by the kernel.
    std::fill(macc, macc + rb * alpha * geom.oc, 0.0f);
    const float* drow[kRowBlock];
    const float* ds[kRowBlock];
    float* ms[kRowBlock];
    for (std::int64_t fh = 0; fh < geom.fh; ++fh) {
      bool any = false;
      for (std::int64_t r = 0; r < rb; ++r) {
        const std::int64_t ihp = hi0 + r - geom.ph + fh;
        const bool valid = img.rows[ihp + geom.ph] != nullptr;
        drow[r] = valid ? ring + (ihp % ring_rows) * dstride : nullptr;
        any = any || valid;
      }
      if (!any) continue;  // every row of the block sees zero padding
      const float* gbase = ghat + fh * alpha * gstride;
      for (int t = 0; t < alpha; ++t) {
        for (std::int64_t r = 0; r < rb; ++r) {
          ds[r] = drow[r] != nullptr
                      ? drow[r] + static_cast<std::int64_t>(t) * geom.ic
                      : nullptr;
          ms[r] = macc + (r * alpha + t) * geom.oc;
        }
        hk.axpy_rank1_multi(ds, gbase + static_cast<std::int64_t>(t) *
                                            gstride,
                            ms, static_cast<int>(rb), geom.ic, geom.oc);
      }
    }
    // Output transform: y[i][oc] = Σ_t A^T[i][t] · m[t][oc], per row.
    for (std::int64_t r = 0; r < rb; ++r) {
      const float* mrow = macc + r * alpha * geom.oc;
      for (int i = 0; i < n_out; ++i) {
        float* yrow = img.y + ((hi0 + r) * img.ow + ow_start + tw * n_out +
                               i) * geom.oc;
        const float* at_row =
            &plan.at_f[static_cast<std::size_t>(i) * alpha];
        hk.out_transform(at_row, alpha, mrow, geom.oc, yrow, geom.oc);
      }
    }
  }
}

void gemm_row(const ImageTask& img, const ConvShape& geom, const float* w,
              const HostKernels& hk, std::int64_t hi, std::int64_t ow_start,
              std::int64_t ow_len) {
  const std::int64_t gk = geom.fh * geom.fw * geom.ic;
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  float* patch = arena.alloc_floats(static_cast<std::size_t>(gk));
  for (std::int64_t wo = ow_start; wo < ow_start + ow_len; ++wo) {
    float* dst = patch;
    for (std::int64_t fh = 0; fh < geom.fh; ++fh) {
      const std::int64_t ihp = hi + fh - geom.ph;
      const float* xrow = img.rows[ihp + geom.ph];
      for (std::int64_t fw = 0; fw < geom.fw; ++fw) {
        const std::int64_t iwp = wo + fw - geom.pw;
        const bool in = xrow != nullptr && iwp >= 0 && iwp < img.iw;
        const float* src = in ? xrow + iwp * geom.ic : nullptr;
        for (std::int64_t ic = 0; ic < geom.ic; ++ic)
          *dst++ = in ? src[ic] : 0.0f;
      }
    }
    float* yrow = img.y + (hi * img.ow + wo) * geom.oc;
    for (std::int64_t oc = 0; oc < geom.oc; ++oc) {
      yrow[oc] = hk.dot(patch, w + oc * gk, gk);
    }
  }
}

// Dense batch as an ImageTask array: one row table per image, bump-allocated
// from the caller's arena (valid across the blocking parallel_for below —
// task bodies open nested scopes on their own threads' arenas).
std::vector<ImageTask> dense_tasks(const TensorF& x, TensorF& y,
                                   const ConvShape& s, ScratchArena& arena) {
  const std::int64_t table_len = s.ih + 2 * s.ph;
  std::vector<ImageTask> tasks(static_cast<std::size_t>(s.n));
  for (std::int64_t ni = 0; ni < s.n; ++ni) {
    auto** rows = static_cast<const float**>(
        arena.alloc(static_cast<std::size_t>(table_len) * sizeof(float*)));
    fill_row_table(rows, x.data() + ni * s.ih * s.iw * s.ic, s.ih, s.iw,
                   s.ic, s.ph);
    ImageTask& t = tasks[static_cast<std::size_t>(ni)];
    t.rows = rows;
    t.y = y.data() + ni * s.oh() * s.ow() * s.oc;
    t.ih = s.ih;
    t.iw = s.iw;
    t.oh = s.oh();
    t.ow = s.ow();
  }
  return tasks;
}

}  // namespace detail

void conv2d_gamma_host_segment_pretransformed(
    const TensorF& x, const float* ghat, const ConvShape& s,
    const GammaConfig& cfg, std::int64_t ow_start, std::int64_t ow_len,
    TensorF& y) {
  s.validate();
  IWG_CHECK(cfg.r == s.fw);
  IWG_CHECK(ow_len % cfg.n == 0);
  IWG_CHECK(ow_start >= 0 && ow_start + ow_len <= s.ow());
  const WinogradPlan& plan = get_plan(cfg.n, cfg.r);
  const HostKernels& hk = host_kernels();
  const std::int64_t tiles_w = ow_len / cfg.n;

  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  const std::vector<detail::ImageTask> tasks =
      detail::dense_tasks(x, y, s, arena);

  const std::int64_t cols = s.n * tiles_w;
  parallel_for(cols, parallel_grain(cols), [&](std::int64_t col) {
    const std::int64_t ni = col / tiles_w;
    const std::int64_t tw = col % tiles_w;
    detail::gamma_tile_column(tasks[static_cast<std::size_t>(ni)], s, cfg,
                              plan, ghat, hk, ow_start, tw);
  });
}

void conv2d_gamma_host_segment(const TensorF& x, const TensorF& w,
                               const ConvShape& s, const GammaConfig& cfg,
                               std::int64_t ow_start, std::int64_t ow_len,
                               TensorF& y) {
  const TensorF ghat = transform_filter_host(w, s, cfg);
  conv2d_gamma_host_segment_pretransformed(x, ghat.data(), s, cfg, ow_start,
                                           ow_len, y);
}

void conv2d_gemm_host_segment(const TensorF& x, const TensorF& w,
                              const ConvShape& s, std::int64_t ow_start,
                              std::int64_t ow_len, TensorF& y) {
  s.validate();
  const HostKernels& hk = host_kernels();
  const std::int64_t oh = s.oh();

  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  const std::vector<detail::ImageTask> tasks =
      detail::dense_tasks(x, y, s, arena);

  const std::int64_t rows = s.n * oh;
  parallel_for(rows, parallel_grain(rows), [&](std::int64_t row) {
    const std::int64_t ni = row / oh;
    const std::int64_t hi = row % oh;
    detail::gemm_row(tasks[static_cast<std::size_t>(ni)], s, w.data(), hk,
                     hi, ow_start, ow_len);
  });
}

TensorF conv2d_gamma_host(const TensorF& x, const TensorF& w,
                          const ConvShape& s,
                          const std::vector<Segment>& plan,
                          const FilterCacheRef& fc) {
  s.validate();
  IWG_CHECK(x.rank() == 4 && x.dim(0) == s.n && x.dim(1) == s.ih &&
            x.dim(2) == s.iw && x.dim(3) == s.ic);
  IWG_CHECK(w.rank() == 4 && w.dim(0) == s.oc && w.dim(1) == s.fh &&
            w.dim(2) == s.fw && w.dim(3) == s.ic);
  IWG_TRACE_SPAN(conv_span, "conv2d_host", "host");
  if (conv_span.active()) {
    conv_span.arg("shape", s.to_string())
        .arg("segments", static_cast<std::int64_t>(plan.size()))
        .arg("isa", host_kernels().name);
  }
  static trace::Counter& gamma_segs =
      trace::MetricsRegistry::global().counter("conv.segments_gamma");
  static trace::Counter& gemm_segs =
      trace::MetricsRegistry::global().counter("conv.segments_gemm");
  TensorF y({s.n, s.oh(), s.ow(), s.oc});

  // Per-call ĝ memo: segments sharing (α, r) — e.g. a ruse prefix and its
  // base mop-up — transform once even without a cross-call cache. With a
  // cache, the memo also keeps repeat segments off the cache lock.
  std::vector<std::pair<std::pair<int, int>, FilterTransformCache::Filter>>
      call_memo;
  auto ghat_for = [&](const GammaConfig& cfg) -> FilterTransformCache::Filter {
    const std::pair<int, int> geom{cfg.alpha, cfg.r};
    for (const auto& e : call_memo) {
      if (e.first == geom) {
        filter_transform_hits().add();
        return e.second;
      }
    }
    FilterTransformCache::Filter ghat;
    if (fc.cache != nullptr) {
      FilterTransformCache::Key key;
      key.weights = fc.key != nullptr ? fc.key
                                      : static_cast<const void*>(w.data());
      key.version = fc.version;
      key.alpha = cfg.alpha;
      key.r = cfg.r;
      key.kind = fc.kind;
      ghat = fc.cache->get_or_compute(
          key, [&] { return transform_filter_host(w, s, cfg); });
    } else {
      filter_transform_misses().add();
      ghat = std::make_shared<const TensorF>(transform_filter_host(w, s, cfg));
    }
    call_memo.emplace_back(geom, ghat);
    return ghat;
  };

  std::int64_t covered = 0;
  for (const Segment& seg : plan) {
    IWG_CHECK_MSG(seg.ow_start == covered, "boundary plan has gaps");
    IWG_TRACE_SPAN(span, seg.is_gemm ? "gemm_host" : "gamma_host", "host");
    if (span.active()) {
      span.arg("ow_start", seg.ow_start).arg("ow_len", seg.ow_len);
      if (!seg.is_gemm) {
        span.arg("alpha", seg.cfg.alpha)
            .arg("n", seg.cfg.n)
            .arg("r", seg.cfg.r)
            .arg("variant", variant_name(seg.cfg.variant));
      }
    }
    if (seg.is_gemm) {
      gemm_segs.add();
      conv2d_gemm_host_segment(x, w, s, seg.ow_start, seg.ow_len, y);
    } else {
      gamma_segs.add();
      const FilterTransformCache::Filter ghat = ghat_for(seg.cfg);
      conv2d_gamma_host_segment_pretransformed(x, ghat->data(), s, seg.cfg,
                                               seg.ow_start, seg.ow_len, y);
    }
    covered += seg.ow_len;
  }
  IWG_CHECK_MSG(covered == s.ow(), "boundary plan does not cover OW");
  return y;
}

TensorF deconv2d_gamma_host(const TensorF& dy, const TensorF& w,
                            const ConvShape& s,
                            const std::vector<Segment>& plan,
                            const FilterCacheRef& fc) {
  IWG_TRACE_SCOPE("deconv2d_host", "host");
  // Equivalent forward problem: rotated/channel-swapped filter, flipped pad.
  const TensorF wd = deconv_filter(w);
  ConvShape ds;
  ds.n = s.n;
  ds.ih = s.oh();
  ds.iw = s.ow();
  ds.ic = s.oc;
  ds.oc = s.ic;
  ds.fh = s.fh;
  ds.fw = s.fw;
  ds.ph = s.fh - 1 - s.ph;
  ds.pw = s.fw - 1 - s.pw;
  IWG_CHECK(ds.oh() == s.ih && ds.ow() == s.iw);
  // Cache entries stay keyed on the *original* weights (wd is a temporary);
  // the kind separates them from the forward transforms.
  FilterCacheRef dfc = fc;
  dfc.key = fc.key != nullptr ? fc.key : static_cast<const void*>(w.data());
  dfc.kind = FilterKind::kDeconv;
  return conv2d_gamma_host(dy, wd, ds, plan, dfc);
}

}  // namespace iwg::core

namespace iwg::core {

TensorF conv2d_filter_grad_winograd(const TensorF& x, const TensorF& dy,
                                    const ConvShape& s) {
  IWG_TRACE_SCOPE("filter_grad_host", "host");
  s.validate();
  IWG_CHECK_MSG(s.fw >= 2 && s.fw <= 9,
                "winograd filter gradient supports filter widths 2-9");
  IWG_CHECK(x.rank() == 4 && x.dim(0) == s.n && x.dim(1) == s.ih &&
            x.dim(2) == s.iw && x.dim(3) == s.ic);
  IWG_CHECK(dy.rank() == 4 && dy.dim(0) == s.n && dy.dim(1) == s.oh() &&
            dy.dim(2) == s.ow() && dy.dim(3) == s.oc);

  // F(fw, m): fw outputs (the filter taps along W), m dY taps per tile.
  const int alpha = s.fw <= 7 ? 8 : 16;
  const int m = alpha + 1 - static_cast<int>(s.fw);
  const WinogradPlan& plan = get_plan(static_cast<int>(s.fw), m);
  const HostKernels& hk = host_kernels();

  const std::int64_t oh = s.oh();
  const std::int64_t ow = s.ow();
  const std::int64_t tiles_w = (ow + m - 1) / m;  // zero-padded tail tiles

  TensorF dw({s.oc, s.fh, s.fw, s.ic});

  // One fh slice at a time keeps the state accumulator at α·IC·OC floats.
  // Parallelism across fh (outer) — rows accumulate into the shared slice.
  parallel_for(s.fh, [&](std::int64_t fh) {
    ScratchArena& arena = ScratchArena::local();
    const ScratchArena::Scope scope(arena);
    float* macc =
        arena.alloc_floats(static_cast<std::size_t>(alpha) * s.ic * s.oc);
    float* ghat = arena.alloc_floats(static_cast<std::size_t>(alpha) * s.oc);
    float* dhat = arena.alloc_floats(static_cast<std::size_t>(alpha) * s.ic);
    std::fill(macc, macc + static_cast<std::int64_t>(alpha) * s.ic * s.oc,
              0.0f);
    const float* taps[16];
    for (std::int64_t ni = 0; ni < s.n; ++ni) {
      for (std::int64_t h = 0; h < oh; ++h) {
        const std::int64_t ihp = h + fh - s.ph;
        if (ihp < 0 || ihp >= s.ih) continue;
        for (std::int64_t tw = 0; tw < tiles_w; ++tw) {
          const std::int64_t ow0 = tw * m;
          // ĝ[t][oc] — the dY chunk is the Winograd "filter"; its m taps
          // are NHWC row slices, so the transform runs OC-lane-parallel.
          for (int i = 0; i < m; ++i) {
            taps[i] = ow0 + i < ow ? &dy.at(ni, h, ow0 + i, 0) : nullptr;
          }
          hk.transform_cols(plan.g_f.data(), alpha, m, taps, s.oc, ghat,
                            s.oc);
          // d̂[t][ic] — the α-wide X window is the Winograd "input".
          const std::int64_t iw0 = ow0 - s.pw;
          for (int e = 0; e < alpha; ++e) {
            const std::int64_t iw = iw0 + e;
            taps[e] = (iw >= 0 && iw < s.iw) ? &x.at(ni, ihp, iw, 0)
                                             : nullptr;
          }
          hk.transform_cols(plan.bt_f.data(), alpha, alpha, taps, s.ic, dhat,
                            s.ic);
          // State-domain outer-product accumulation over (row, tile).
          for (int t = 0; t < alpha; ++t) {
            const float* grow = ghat + static_cast<std::size_t>(t) * s.oc;
            const float* drow = dhat + static_cast<std::size_t>(t) * s.ic;
            float* mbase = macc + static_cast<std::size_t>(t) * s.ic * s.oc;
            for (std::int64_t ic = 0; ic < s.ic; ++ic) {
              const float dv = drow[ic];
              if (dv == 0.0f) continue;
              hk.saxpy(dv, grow, mbase + ic * s.oc, s.oc);
            }
          }
        }
      }
    }
    // Output transform: dW[oc][fh][j][ic] = Σ_t A^T[j][t] · m̂[t][ic][oc].
    for (std::int64_t j = 0; j < s.fw; ++j) {
      const float* at_row =
          &plan.at_f[static_cast<std::size_t>(j) * alpha];
      for (std::int64_t ic = 0; ic < s.ic; ++ic) {
        for (std::int64_t oc = 0; oc < s.oc; ++oc) {
          float acc = 0.0f;
          for (int t = 0; t < alpha; ++t) {
            const float a = at_row[t];
            if (a == 0.0f) continue;
            acc += a * macc[(static_cast<std::size_t>(t) * s.ic + ic) * s.oc +
                            oc];
          }
          dw.at(oc, fh, j, ic) = acc;
        }
      }
    }
  });
  return dw;
}

}  // namespace iwg::core

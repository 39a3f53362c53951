#include "core/conv_api.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/filter_cache.hpp"
#include "core/gamma_host.hpp"
#include "tensor/layout.hpp"

namespace iwg::core {

namespace {

/// The ĝ-reuse handle the host engine derives from caller options.
FilterCacheRef cache_ref(const ConvOptions& opts) {
  FilterCacheRef fc;
  fc.cache = opts.filter_cache;
  fc.version = opts.weights_version;
  return fc;
}

/// Common span args for one boundary-plan segment. Templated over the span
/// type so the call sites also compile against trace::NullSpan under
/// -DIWG_TRACE_DISABLE.
template <typename SpanT>
void tag_segment(SpanT& span, const Segment& seg) {
  if (!span.active()) return;
  span.arg("ow_start", seg.ow_start).arg("ow_len", seg.ow_len);
  if (!seg.is_gemm) {
    span.arg("alpha", seg.cfg.alpha)
        .arg("n", seg.cfg.n)
        .arg("r", seg.cfg.r)
        .arg("variant", variant_name(seg.cfg.variant));
  }
}

/// Export one kernel launch's measured hardware counters into the flight
/// recorder: per-kernel span args (readable next to the slice in Perfetto)
/// plus process-level metrics, so the paper's §5.2 bank-conflict and NHWC
/// coalescing claims are continuously measured numbers rather than one-off
/// bench output.
template <typename SpanT>
void export_sim_stats(SpanT& span, const sim::LaunchStats& st) {
  span.arg("sim.blocks", st.blocks)
      .arg("sim.fma", st.fma)
      .arg("sim.gld_sectors", st.gld_sectors)
      .arg("sim.gst_sectors", st.gst_sectors)
      .arg("sim.gld_efficiency", st.gld_efficiency())
      .arg("sim.smem_ld_passes", st.smem_ld_passes)
      .arg("sim.smem_ld_ideal", st.smem_ld_ideal)
      .arg("sim.smem_st_passes", st.smem_st_passes)
      .arg("sim.smem_st_ideal", st.smem_st_ideal)
      .arg("sim.smem_ld_conflict_factor", st.smem_ld_conflict_factor())
      .arg("sim.smem_st_conflict_factor", st.smem_st_conflict_factor())
      .arg("sim.barriers", st.barriers);
  auto& reg = trace::MetricsRegistry::global();
  static trace::Counter& launches = reg.counter("sim.counted_launches");
  static trace::Histogram& ld_cf =
      reg.histogram("sim.smem_ld_conflict_factor");
  static trace::Histogram& st_cf =
      reg.histogram("sim.smem_st_conflict_factor");
  static trace::Histogram& gld_eff = reg.histogram("sim.gld_efficiency");
  launches.add();
  ld_cf.record(st.smem_ld_conflict_factor());
  st_cf.record(st.smem_st_conflict_factor());
  gld_eff.record(st.gld_efficiency());
}

}  // namespace

std::vector<Segment> plan_for(const ConvShape& s, const ConvOptions& opts) {
  s.validate();
  if (!opts.use_winograd || s.fw < 2 || s.fw > 9) {
    // Whole width handled by GEMM (widths the Γ kernels do not cover).
    Segment seg;
    seg.is_gemm = true;
    seg.ow_start = 0;
    seg.ow_len = s.ow();
    return {seg};
  }
  const bool c64 = opts.allow_c64 && s.ic % 64 == 0 && s.oc % 64 == 0;
  return plan_boundary(s.ow(), static_cast<int>(s.fw), opts.allow_ruse, c64);
}

std::vector<Segment> plan_single(const ConvShape& s,
                                 const GammaConfig& primary) {
  s.validate();
  IWG_CHECK(primary.r == s.fw);
  const std::int64_t gran =
      static_cast<std::int64_t>(primary.n) *
      (primary.variant == Variant::kRuse ? 2 : 1);
  std::vector<Segment> plan;
  std::int64_t start = 0;
  std::int64_t remaining = s.ow();
  const std::int64_t len = remaining - remaining % gran;
  if (len > 0) {
    plan.push_back(Segment{false, primary, start, len});
    start += len;
    remaining -= len;
  }
  // A ruse primary covers tile *pairs*; its base version mops up a single
  // leftover tile before the GEMM tail (the §5.5 chaining discipline).
  if (primary.variant == Variant::kRuse && remaining >= primary.n) {
    const GammaConfig base =
        GammaConfig::make(primary.alpha, primary.n, primary.r);
    const std::int64_t blen = remaining - remaining % primary.n;
    plan.push_back(Segment{false, base, start, blen});
    start += blen;
    remaining -= blen;
  }
  if (remaining > 0) {
    Segment seg;
    seg.is_gemm = true;
    seg.ow_start = start;
    seg.ow_len = remaining;
    plan.push_back(seg);
  }
  return plan;
}

TensorF conv2d(const TensorF& x, const TensorF& w, const ConvShape& s,
               const ConvOptions& opts) {
  std::optional<trace::Suppress> mute;
  if (!opts.trace) mute.emplace();
  return conv2d_gamma_host(x, w, s, plan_for(s, opts), cache_ref(opts));
}

TensorF conv2d(const TensorF& x, const TensorF& w, const ConvShape& s,
               const std::vector<Segment>& plan, const ConvOptions& opts) {
  std::optional<trace::Suppress> mute;
  if (!opts.trace) mute.emplace();
  return conv2d_gamma_host(x, w, s, plan, cache_ref(opts));
}

namespace {

/// Polyphase count per axis of the stride-2 rewrite.
std::int64_t phases(std::int64_t f) { return std::min<std::int64_t>(2, f); }

}  // namespace

ConvShape space_to_depth_shape(const ConvShape& s) {
  s.validate();
  const std::int64_t fa_h = (s.fh + 1) / 2;
  const std::int64_t fa_w = (s.fw + 1) / 2;
  ConvShape r;
  r.n = s.n;
  r.ih = (s.ih + 2 * s.ph - s.fh) / 2 + fa_h;  // OH + ⌈FH/2⌉ − 1
  r.iw = (s.iw + 2 * s.pw - s.fw) / 2 + fa_w;
  r.ic = phases(s.fh) * phases(s.fw) * s.ic;
  r.oc = s.oc;
  r.fh = fa_h;
  r.fw = fa_w;
  return r;
}

void space_to_depth_input(const float* x, const ConvShape& s, float* dst) {
  IWG_TRACE_SCOPE("space_to_depth", "host");
  const ConvShape r = space_to_depth_shape(s);
  const std::int64_t p_h = phases(s.fh);
  const std::int64_t p_w = phases(s.fw);
  const std::size_t ic_bytes = static_cast<std::size_t>(s.ic) * sizeof(float);
  const std::int64_t rows = r.n * r.ih;
  parallel_for(rows, parallel_grain(rows), [&](std::int64_t row) {
    const std::int64_t ni = row / r.ih;
    const std::int64_t k = row % r.ih;
    const float* img = x + ni * s.ih * s.iw * s.ic;
    float* out = dst + row * r.iw * r.ic;
    for (std::int64_t j = 0; j < r.iw; ++j) {
      for (std::int64_t p = 0; p < p_h; ++p) {
        const std::int64_t h = 2 * k + p - s.ph;
        for (std::int64_t q = 0; q < p_w; ++q, out += s.ic) {
          const std::int64_t w = 2 * j + q - s.pw;
          if (h < 0 || h >= s.ih || w < 0 || w >= s.iw) {
            std::fill(out, out + s.ic, 0.0f);
          } else {
            std::memcpy(out, img + (h * s.iw + w) * s.ic, ic_bytes);
          }
        }
      }
    }
  });
}

TensorF space_to_depth_filter(const TensorF& w) {
  IWG_CHECK(w.rank() == 4);
  const std::int64_t oc = w.dim(0);
  const std::int64_t fh = w.dim(1);
  const std::int64_t fw = w.dim(2);
  const std::int64_t ic = w.dim(3);
  const std::int64_t p_h = phases(fh);
  const std::int64_t p_w = phases(fw);
  const std::int64_t fa_h = (fh + 1) / 2;
  const std::int64_t fa_w = (fw + 1) / 2;
  TensorF wp({oc, fa_h, fa_w, p_h * p_w * ic});  // zero-filled
  for (std::int64_t o = 0; o < oc; ++o) {
    for (std::int64_t a = 0; a < fa_h; ++a) {
      for (std::int64_t b = 0; b < fa_w; ++b) {
        float* out = &wp.at(o, a, b, 0);
        for (std::int64_t p = 0; p < p_h; ++p) {
          for (std::int64_t q = 0; q < p_w; ++q, out += ic) {
            if (2 * a + p < fh && 2 * b + q < fw) {
              const float* src = &w.at(o, 2 * a + p, 2 * b + q, 0);
              std::copy(src, src + ic, out);
            }
          }
        }
      }
    }
  }
  return wp;
}

std::shared_ptr<const TensorF> space_to_depth_filter(
    const TensorF& w, FilterTransformCache* cache, std::uint64_t version) {
  if (w.dim(1) == 1 && w.dim(2) == 1) {
    return std::shared_ptr<const TensorF>(std::shared_ptr<const TensorF>(),
                                          &w);
  }
  if (cache == nullptr) {
    filter_transform_misses().add();
    return std::make_shared<const TensorF>(space_to_depth_filter(w));
  }
  FilterTransformCache::Key key;
  key.weights = w.data();
  key.version = version;
  key.kind = FilterKind::kSpaceToDepth;
  return cache->get_or_compute(key, [&] { return space_to_depth_filter(w); });
}

TensorF conv2d_stride2(const TensorF& x, const TensorF& w, const ConvShape& s,
                       const ConvOptions& opts) {
  return conv2d_stride2(x, w, s, plan_for(space_to_depth_shape(s), opts),
                        opts);
}

TensorF conv2d_stride2(const TensorF& x, const TensorF& w, const ConvShape& s,
                       const std::vector<Segment>& plan,
                       const ConvOptions& opts) {
  std::optional<trace::Suppress> mute;
  if (!opts.trace) mute.emplace();
  IWG_CHECK(x.rank() == 4 && x.dim(0) == s.n && x.dim(1) == s.ih &&
            x.dim(2) == s.iw && x.dim(3) == s.ic);
  IWG_CHECK(w.rank() == 4 && w.dim(0) == s.oc && w.dim(1) == s.fh &&
            w.dim(2) == s.fw && w.dim(3) == s.ic);
  const ConvShape rs = space_to_depth_shape(s);
  TensorF xs({rs.n, rs.ih, rs.iw, rs.ic});
  space_to_depth_input(x.data(), s, xs.data());
  const std::shared_ptr<const TensorF> wp =
      space_to_depth_filter(w, opts.filter_cache, opts.weights_version);
  // ĝ of w' is keyed on the original weights, so the version bump of an
  // optimizer step or a weight load invalidates it with everything else.
  FilterCacheRef fc = cache_ref(opts);
  fc.key = w.data();
  fc.kind = FilterKind::kSpaceToDepth;
  return conv2d_gamma_host(xs, *wp, rs, plan, fc);
}

TensorF deconv2d(const TensorF& dy, const TensorF& w, const ConvShape& s,
                 const ConvOptions& opts) {
  std::optional<trace::Suppress> mute;
  if (!opts.trace) mute.emplace();
  // Plan over the *input* width (the deconv output) with the same priorities.
  ConvShape b = GammaKernel::make_backward_shape(s);
  return deconv2d_gamma_host(dy, w, s, plan_for(b, opts), cache_ref(opts));
}

namespace {

TensorF run_plan_sim(const TensorF& x, const TensorF& w_orig,
                     const ConvShape& s, const std::vector<Segment>& plan) {
  // Forward kernels read the pre-transposed FH,FW,IC,OC filter (§5.1); the
  // GEMM tail reads the precomputed k-major matrix.
  const TensorF wt = transpose_filter_to_fhwio(w_orig);

  TensorF y({s.n, s.oh(), s.ow(), s.oc});
  sim::GmemBuf xbuf(x.data(), x.size(), /*clamp_zero=*/true);
  sim::GmemBuf wbuf(wt.data(), wt.size());
  sim::GmemBuf ybuf(y.data(), y.size());

  TensorF wgemm;
  std::int64_t covered = 0;
  for (const Segment& seg : plan) {
    IWG_CHECK_MSG(seg.ow_start == covered, "plan has gaps");
    covered += seg.ow_len;
    IWG_TRACE_SPAN(span, seg.is_gemm ? "gemm_sim" : "gamma_sim", "sim");
    tag_segment(span, seg);
    // When the flight recorder is on, run the launch with hardware counters
    // and attach the measurements to this kernel's span.
    const bool counting = span.active();
    if (seg.is_gemm) {
      if (wgemm.empty())
        wgemm = precompute_gemm_filter(w_orig, GemmLayout::kNHWC);
      sim::GmemBuf wg(wgemm.data(), wgemm.size());
      ImplicitGemmKernel k(s, GemmLayout::kNHWC, xbuf, wg, ybuf, seg.ow_start,
                           seg.ow_len);
      const sim::LaunchStats st = sim::launch_all(k, k.grid(), counting);
      if (counting) export_sim_stats(span, st);
    } else {
      GammaKernel k(seg.cfg, s, ConvDir::kForward, xbuf, wbuf, ybuf,
                    seg.ow_start, seg.ow_len);
      const sim::LaunchStats st = sim::launch_all(k, k.grid(), counting);
      if (counting) export_sim_stats(span, st);
    }
  }
  IWG_CHECK_MSG(covered == s.ow(), "plan does not cover OW");
  return y;
}

}  // namespace

TensorF conv2d_sim(const TensorF& x, const TensorF& w, const ConvShape& s,
                   const std::vector<Segment>& plan) {
  s.validate();
  IWG_CHECK(x.dim(0) == s.n && x.dim(1) == s.ih && x.dim(2) == s.iw &&
            x.dim(3) == s.ic);
  IWG_CHECK(w.dim(0) == s.oc && w.dim(1) == s.fh && w.dim(2) == s.fw &&
            w.dim(3) == s.ic);
  return run_plan_sim(x, w, s, plan);
}

TensorF deconv2d_sim(const TensorF& dy, const TensorF& w, const ConvShape& s,
                     const std::vector<Segment>& plan) {
  s.validate();
  const ConvShape b = GammaKernel::make_backward_shape(s);
  IWG_CHECK(dy.dim(0) == b.n && dy.dim(1) == b.ih && dy.dim(2) == b.iw &&
            dy.dim(3) == b.ic);

  // Γ segments read the original filter (rotation fused); the GEMM tail, if
  // any, needs the explicit equivalent-forward filter. run_plan_sim derives
  // the tail filter from the tensor we hand it, so pass the rotated filter
  // and use kBackwardData only for the Γ kernels by splitting the plan here.
  TensorF y({b.n, b.oh(), b.ow(), b.oc});
  sim::GmemBuf xbuf(dy.data(), dy.size(), /*clamp_zero=*/true);
  sim::GmemBuf wbuf(w.data(), w.size());
  sim::GmemBuf ybuf(y.data(), y.size());

  TensorF wrot;  // equivalent forward filter for the GEMM tail
  TensorF wgemm;
  std::int64_t covered = 0;
  for (const Segment& seg : plan) {
    IWG_CHECK_MSG(seg.ow_start == covered, "plan has gaps");
    covered += seg.ow_len;
    IWG_TRACE_SPAN(span, seg.is_gemm ? "gemm_sim" : "gamma_sim", "sim");
    tag_segment(span, seg);
    const bool counting = span.active();
    if (seg.is_gemm) {
      if (wgemm.empty()) {
        wrot = deconv_filter(w);
        wgemm = precompute_gemm_filter(wrot, GemmLayout::kNHWC);
      }
      sim::GmemBuf wg(wgemm.data(), wgemm.size());
      ImplicitGemmKernel k(b, GemmLayout::kNHWC, xbuf, wg, ybuf, seg.ow_start,
                           seg.ow_len);
      const sim::LaunchStats st = sim::launch_all(k, k.grid(), counting);
      if (counting) export_sim_stats(span, st);
    } else {
      GammaKernel k(seg.cfg, b, ConvDir::kBackwardData, xbuf, wbuf, ybuf,
                    seg.ow_start, seg.ow_len);
      const sim::LaunchStats st = sim::launch_all(k, k.grid(), counting);
      if (counting) export_sim_stats(span, st);
    }
  }
  IWG_CHECK_MSG(covered == b.ow(), "plan does not cover the deconv output");
  return y;
}

ConvPerfReport profile_conv2d(const ConvShape& s, const sim::DeviceProfile& dev,
                              const std::vector<Segment>& plan,
                              int max_samples) {
  s.validate();
  ConvPerfReport rep;
  const double xbytes = 4.0 * s.n * s.ih * s.iw * s.ic;
  const double wbytes = 4.0 * s.oc * s.fh * s.fw * s.ic;
  const double ybytes = 4.0 * s.n * s.oh() * s.ow() * s.oc;
  const double footprint = xbytes + wbytes + ybytes;
  const int launches = static_cast<int>(plan.size());

  // Address-only buffers: profiling never allocates paper-scale tensors.
  sim::GmemBuf xbuf(static_cast<float*>(nullptr),
                    s.n * s.ih * s.iw * s.ic, true);
  sim::GmemBuf wbuf(static_cast<float*>(nullptr),
                    s.oc * s.fh * s.fw * s.ic);
  sim::GmemBuf ybuf(static_cast<float*>(nullptr),
                    s.n * s.oh() * s.ow() * s.oc);
  sim::GmemBuf wgemm(static_cast<float*>(nullptr),
                     s.fh * s.fw * s.ic * s.oc);

  for (const Segment& seg : plan) {
    const double frac =
        static_cast<double>(seg.ow_len) / static_cast<double>(s.ow());
    const double seg_flops = s.flops() * frac;
    IWG_TRACE_SPAN(span, seg.is_gemm ? "profile.gemm" : "profile.gamma",
                   "profile");
    tag_segment(span, seg);
    sim::PerfEstimate est;
    sim::LaunchStats seg_stats;
    if (seg.is_gemm) {
      ImplicitGemmKernel k(s, GemmLayout::kNHWC, xbuf, wgemm, ybuf,
                           seg.ow_start, seg.ow_len);
      est = profile_gemm(k, dev, seg_flops, footprint * frac, max_samples, 1,
                         &seg_stats);
    } else {
      GammaKernel k(seg.cfg, s, ConvDir::kForward, xbuf, wbuf, ybuf,
                    seg.ow_start, seg.ow_len);
      est = profile_gamma(k, dev, seg_flops, footprint * frac, max_samples, 1,
                          &seg_stats);
    }
    rep.stats.merge(seg_stats);
    export_sim_stats(span, seg_stats);
    // The paper's roofline attribution (§6): per-resource analytic split.
    span.arg("time_s", est.time_s)
        .arg("gflops", est.gflops)
        .arg("t_compute", est.t_compute)
        .arg("t_dram", est.t_dram)
        .arg("t_l2", est.t_l2)
        .arg("t_smem", est.t_smem)
        .arg("dram_bytes", est.dram_bytes)
        .arg("bound", est.bound);
    rep.segments.push_back(est);
    rep.time_s += est.time_s;
  }
  rep.time_s += dev.launch_overhead_s * (launches - 1);
  rep.gflops = s.flops() / rep.time_s / 1e9;
  // Filter transposition (§5.1): one read + one write of W over DRAM.
  rep.transpose_s = 2.0 * wbytes / (dev.dram_bw_gbps * 1e9) +
                    dev.launch_overhead_s;
  return rep;
}

ConvPerfReport profile_gemm_conv2d(const ConvShape& s,
                                   const sim::DeviceProfile& dev,
                                   GemmLayout layout, int max_samples) {
  s.validate();
  ConvPerfReport rep;
  const double xbytes = 4.0 * s.n * s.ih * s.iw * s.ic;
  const double wbytes = 4.0 * s.oc * s.fh * s.fw * s.ic;
  const double ybytes = 4.0 * s.n * s.oh() * s.ow() * s.oc;

  sim::GmemBuf xbuf(static_cast<float*>(nullptr),
                    s.n * s.ih * s.iw * s.ic, true);
  sim::GmemBuf wbuf(static_cast<float*>(nullptr),
                    s.fh * s.fw * s.ic * s.oc);
  sim::GmemBuf ybuf(static_cast<float*>(nullptr),
                    s.n * s.oh() * s.ow() * s.oc);
  ImplicitGemmKernel k(s, layout, xbuf, wbuf, ybuf, 0, s.ow());
  const sim::PerfEstimate est =
      profile_gemm(k, dev, s.flops(), xbytes + wbytes + ybytes, max_samples, 1,
                   &rep.stats);
  rep.segments.push_back(est);
  rep.time_s = est.time_s;
  rep.gflops = est.gflops;
  rep.transpose_s = 0.0;  // precomp filter is part of cuDNN's setup as well
  return rep;
}

}  // namespace iwg::core

#include "nn/layers.hpp"

#include <cmath>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "core/gamma_host.hpp"
#include "core/indirect.hpp"
#include "core/plan_cache.hpp"
#include "reference/direct_conv.hpp"
#include "reference/im2col_gemm.hpp"

namespace iwg::nn {

void kaiming_uniform(TensorF& w, std::int64_t fan_in, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  w.fill_uniform(rng, -bound, bound);
}

namespace {

core::ConvOptions options_for(ConvEngine engine) {
  core::ConvOptions opts;
  opts.use_winograd = engine == ConvEngine::kWinograd;
  return opts;
}

/// dX of a stride-s convolution (scatter form; the stride-2 backward pass
/// has no Winograd path).
TensorF deconv_strided(const TensorF& dy, const TensorF& w, const ConvShape& s,
                       std::int64_t stride) {
  const std::int64_t oh = dy.dim(1);
  const std::int64_t ow = dy.dim(2);
  TensorF dx({s.n, s.ih, s.iw, s.ic});
  parallel_for(s.n, [&](std::int64_t ni) {
    for (std::int64_t ho = 0; ho < oh; ++ho) {
      for (std::int64_t wo = 0; wo < ow; ++wo) {
        for (std::int64_t fh = 0; fh < s.fh; ++fh) {
          const std::int64_t hi = ho * stride + fh - s.ph;
          if (hi < 0 || hi >= s.ih) continue;
          for (std::int64_t fw = 0; fw < s.fw; ++fw) {
            const std::int64_t wi = wo * stride + fw - s.pw;
            if (wi < 0 || wi >= s.iw) continue;
            for (std::int64_t oc = 0; oc < s.oc; ++oc) {
              const float g = dy.at(ni, ho, wo, oc);
              if (g == 0.0f) continue;
              const float* wp = &w.at(oc, fh, fw, 0);
              float* xp = &dx.at(ni, hi, wi, 0);
              for (std::int64_t ic = 0; ic < s.ic; ++ic) xp[ic] += g * wp[ic];
            }
          }
        }
      }
    }
  });
  return dx;
}

/// dW of a stride-s convolution.
TensorF filter_grad_strided(const TensorF& x, const TensorF& dy,
                            const ConvShape& s, std::int64_t stride) {
  const std::int64_t oh = dy.dim(1);
  const std::int64_t ow = dy.dim(2);
  TensorF dw({s.oc, s.fh, s.fw, s.ic});
  parallel_for(s.oc, [&](std::int64_t oc) {
    for (std::int64_t ni = 0; ni < s.n; ++ni) {
      for (std::int64_t ho = 0; ho < oh; ++ho) {
        for (std::int64_t wo = 0; wo < ow; ++wo) {
          const float g = dy.at(ni, ho, wo, oc);
          if (g == 0.0f) continue;
          for (std::int64_t fh = 0; fh < s.fh; ++fh) {
            const std::int64_t hi = ho * stride + fh - s.ph;
            if (hi < 0 || hi >= s.ih) continue;
            for (std::int64_t fw = 0; fw < s.fw; ++fw) {
              const std::int64_t wi = wo * stride + fw - s.pw;
              if (wi < 0 || wi >= s.iw) continue;
              const float* xp = &x.at(ni, hi, wi, 0);
              float* wp = &dw.at(oc, fh, fw, 0);
              for (std::int64_t ic = 0; ic < s.ic; ++ic) wp[ic] += g * xp[ic];
            }
          }
        }
      }
    }
  });
  return dw;
}

}  // namespace

// ---------------------------------------------------------------------------
// Conv2D

Conv2D::Conv2D(std::int64_t in_ch, std::int64_t out_ch, std::int64_t fsize,
               std::int64_t stride, std::int64_t pad, ConvEngine engine,
               Rng& rng, std::string label)
    : label_(std::move(label)),
      fsize_(fsize),
      stride_(stride),
      pad_(pad),
      engine_(engine) {
  IWG_CHECK(stride == 1 || stride == 2);
  w_.name = label_ + ".w";
  w_.value.reset({out_ch, fsize, fsize, in_ch});
  kaiming_uniform(w_.value, in_ch * fsize * fsize, rng);
  b_.name = label_ + ".b";
  b_.value.reset({out_ch});
}

Conv2D::~Conv2D() {
  core::FilterTransformCache::global().invalidate(w_.value.data());
}

ConvShape Conv2D::shape_for(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4);
  return ConvShape{.n = x.dim(0), .ih = x.dim(1), .iw = x.dim(2),
                   .ic = x.dim(3), .oc = w_.value.dim(0), .fh = fsize_,
                   .fw = fsize_, .ph = pad_, .pw = pad_};
}

ConvShape Conv2D::engine_shape(const ConvShape& s) const {
  return stride_ == 1 ? s : core::space_to_depth_shape(s);
}

TensorF Conv2D::apply(const TensorF& x, const ConvShape& s) const {
  TensorF y;
  if (stride_ != 1 && engine_ == ConvEngine::kGemm) {
    // The scalar reference stays the kGemm engine's strided path: it is
    // what the Winograd engine's rewrite is checked against.
    y = ref::conv2d_implicit_gemm_strided(x, w_.value, s, stride_, stride_);
  } else {
    // Param storage is stable and `version` is bumped on every update, so
    // the forward, the backward, and every later call until the next
    // optimizer step share one filter transform per Γ geometry.
    core::ConvOptions opts = options_for(engine_);
    opts.filter_cache = &core::FilterTransformCache::global();
    opts.weights_version = w_.version;
    const ConvShape es = engine_shape(s);
    const std::vector<core::Segment> plan =
        tuned_ && es == tuned_shape_ ? tuned_->executable_plan(es)
                                     : core::plan_for(es, opts);
    y = stride_ == 1 ? core::conv2d(x, w_.value, s, plan, opts)
                     : core::conv2d_stride2(x, w_.value, s, plan, opts);
  }
  // Bias.
  const std::int64_t oc = y.dim(3);
  const std::int64_t pixels = y.size() / oc;
  for (std::int64_t m = 0; m < pixels; ++m) {
    float* row = y.data() + m * oc;
    for (std::int64_t c = 0; c < oc; ++c) row[c] += b_.value[c];
  }
  return y;
}

TensorF Conv2D::forward(const TensorF& x, bool train) {
  shape_ = shape_for(x);
  TensorF y = apply(x, shape_);
  if (train) {
    x_cache_ = x;
  } else {
    x_cache_ = TensorF();
  }
  return y;
}

TensorF Conv2D::infer(const TensorF& x) const { return apply(x, shape_for(x)); }

std::vector<TensorF> Conv2D::infer_ragged(
    const std::vector<TensorF>& xs) const {
  // The kGemm engine's strided path is the scalar reference, which has no
  // indirect form — keep the per-image baseline there.
  if (xs.empty() || (stride_ != 1 && engine_ == ConvEngine::kGemm)) {
    return Layer::infer_ragged(xs);
  }
  const std::int64_t oc = w_.value.dim(0);
  // Dispatch-wide geometry (channels/filter/padding); spatial extents are
  // per image. plan_for never sees N, and the indirect entry reuses the
  // dense task bodies, so each image's output matches batch-1 infer() bit
  // for bit. A stride-2 image enters as its space-to-depth gather, which
  // lives in this scope of the calling thread's arena.
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  const ConvShape geom = engine_shape(shape_for(xs.front()));
  std::vector<TensorF> ys(xs.size());
  std::vector<core::ImageView> views(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const ConvShape si = shape_for(xs[i]);
    IWG_CHECK_MSG(si.n == 1, "infer_ragged expects one image per tensor");
    const ConvShape ei = engine_shape(si);
    const float* x = xs[i].data();
    if (stride_ != 1) {
      float* gathered = arena.alloc_floats(
          static_cast<std::size_t>(ei.ih * ei.iw * ei.ic));
      core::space_to_depth_input(x, si, gathered);
      x = gathered;
    }
    ys[i].reset({1, ei.oh(), ei.ow(), oc});
    views[i] = core::ImageView{x, ys[i].data(), ei.ih, ei.iw};
  }
  core::IndirectOptions opts;
  opts.use_winograd = engine_ == ConvEngine::kWinograd;
  opts.fc.cache = &core::FilterTransformCache::global();
  opts.fc.version = w_.version;
  std::shared_ptr<const TensorF> w(std::shared_ptr<const TensorF>(),
                                   &w_.value);
  if (stride_ != 1) {
    w = core::space_to_depth_filter(w_.value, opts.fc.cache, w_.version);
    opts.fc.key = w_.value.data();
    opts.fc.kind = core::FilterKind::kSpaceToDepth;
  }
  core::conv2d_gamma_host_indirect(views, *w, geom, opts);
  for (TensorF& y : ys) {
    const std::int64_t pixels = y.size() / oc;
    for (std::int64_t m = 0; m < pixels; ++m) {
      float* row = y.data() + m * oc;
      for (std::int64_t c = 0; c < oc; ++c) row[c] += b_.value[c];
    }
  }
  return ys;
}

Dims4 Conv2D::pretune(const Dims4& in, AutotuneContext& ctx) {
  const ConvShape es = engine_shape(
      ConvShape{.n = in.n, .ih = in.h, .iw = in.w, .ic = in.c,
                .oc = w_.value.dim(0), .fh = fsize_, .fw = fsize_,
                .ph = pad_, .pw = pad_});
  // The kGemm engine is the baseline configuration the training
  // experiments compare against; it never runs a tuned plan.
  if (engine_ == ConvEngine::kWinograd && ctx.dev != nullptr) {
    core::PlanCache& cache =
        ctx.cache != nullptr ? *ctx.cache : core::PlanCache::global();
    tuned_ = cache.get_or_tune(es, *ctx.dev, ctx.samples,
                               core::TuningBudget{ctx.max_candidates});
    tuned_shape_ = es;
    ++ctx.resolved;
  }
  return Dims4{.n = in.n, .h = es.oh(), .w = es.ow(), .c = es.oc};
}

TensorF Conv2D::backward(const TensorF& dy) {
  IWG_CHECK(!x_cache_.empty());
  // db
  TensorF& db = b_.ensure_grad();
  const std::int64_t oc = dy.dim(3);
  const std::int64_t pixels = dy.size() / oc;
  for (std::int64_t m = 0; m < pixels; ++m) {
    const float* row = dy.data() + m * oc;
    for (std::int64_t c = 0; c < oc; ++c) db[c] += row[c];
  }
  // dw and dx
  TensorF& gw = w_.ensure_grad();
  if (stride_ == 1) {
    // The Winograd engine also accelerates the weight-gradient correlation
    // (library extension — see conv2d_filter_grad_winograd).
    const bool wino_dw =
        engine_ == ConvEngine::kWinograd && fsize_ >= 2 && fsize_ <= 9;
    const TensorF dw =
        wino_dw ? core::conv2d_filter_grad_winograd(x_cache_, dy, shape_)
                : ref::conv2d_filter_grad_gemm(x_cache_, dy, shape_);
    for (std::int64_t i = 0; i < dw.size(); ++i) gw[i] += dw[i];
    if (engine_ == ConvEngine::kWinograd) {
      core::ConvOptions opts = options_for(engine_);
      opts.filter_cache = &core::FilterTransformCache::global();
      opts.weights_version = w_.version;
      return core::deconv2d(dy, w_.value, shape_, opts);
    }
    return ref::deconv2d_implicit_gemm(dy, w_.value, shape_);
  }
  const TensorF dw = filter_grad_strided(x_cache_, dy, shape_, stride_);
  for (std::int64_t i = 0; i < dw.size(); ++i) gw[i] += dw[i];
  return deconv_strided(dy, w_.value, shape_, stride_);
}

// ---------------------------------------------------------------------------
// BatchNorm2D

BatchNorm2D::BatchNorm2D(std::int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_.name = "bn.gamma";
  gamma_.value.reset({channels});
  gamma_.value.fill(1.0f);
  beta_.name = "bn.beta";
  beta_.value.reset({channels});
  running_mean_.reset({channels});
  running_var_.reset({channels});
  running_var_.fill(1.0f);
  inv_std_.resize(static_cast<std::size_t>(channels));
}

TensorF BatchNorm2D::forward(const TensorF& x, bool train) {
  IWG_CHECK(x.rank() == 4 && x.dim(3) == channels_);
  const std::int64_t m = x.size() / channels_;
  TensorF y(std::vector<std::int64_t>{x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
  if (train) {
    xhat_.reset({x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
    count_ = m;
    for (std::int64_t c = 0; c < channels_; ++c) {
      double mean = 0.0;
      for (std::int64_t i = 0; i < m; ++i) mean += x[i * channels_ + c];
      mean /= static_cast<double>(m);
      double var = 0.0;
      for (std::int64_t i = 0; i < m; ++i) {
        const double d = x[i * channels_ + c] - mean;
        var += d * d;
      }
      var /= static_cast<double>(m);
      const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      inv_std_[static_cast<std::size_t>(c)] = inv;
      running_mean_[c] = momentum_ * running_mean_[c] +
                         (1.0f - momentum_) * static_cast<float>(mean);
      running_var_[c] = momentum_ * running_var_[c] +
                        (1.0f - momentum_) * static_cast<float>(var);
      for (std::int64_t i = 0; i < m; ++i) {
        const float xh =
            (x[i * channels_ + c] - static_cast<float>(mean)) * inv;
        xhat_[i * channels_ + c] = xh;
        y[i * channels_ + c] = gamma_.value[c] * xh + beta_.value[c];
      }
    }
  } else {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float inv = 1.0f / std::sqrt(running_var_[c] + eps_);
      for (std::int64_t i = 0; i < m; ++i) {
        y[i * channels_ + c] =
            gamma_.value[c] * (x[i * channels_ + c] - running_mean_[c]) * inv +
            beta_.value[c];
      }
    }
  }
  return y;
}

TensorF BatchNorm2D::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4 && x.dim(3) == channels_);
  const std::int64_t m = x.size() / channels_;
  TensorF y(std::vector<std::int64_t>{x.dim(0), x.dim(1), x.dim(2), x.dim(3)});
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float inv = 1.0f / std::sqrt(running_var_[c] + eps_);
    for (std::int64_t i = 0; i < m; ++i) {
      y[i * channels_ + c] =
          gamma_.value[c] * (x[i * channels_ + c] - running_mean_[c]) * inv +
          beta_.value[c];
    }
  }
  return y;
}

TensorF BatchNorm2D::backward(const TensorF& dy) {
  IWG_CHECK(!xhat_.empty());
  const std::int64_t m = count_;
  TensorF& dgamma = gamma_.ensure_grad();
  TensorF& dbeta = beta_.ensure_grad();
  TensorF dx(std::vector<std::int64_t>{dy.dim(0), dy.dim(1), dy.dim(2),
                                       dy.dim(3)});
  for (std::int64_t c = 0; c < channels_; ++c) {
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (std::int64_t i = 0; i < m; ++i) {
      const float g = dy[i * channels_ + c];
      sum_dy += g;
      sum_dy_xhat += g * xhat_[i * channels_ + c];
    }
    dgamma[c] += static_cast<float>(sum_dy_xhat);
    dbeta[c] += static_cast<float>(sum_dy);
    const float inv = inv_std_[static_cast<std::size_t>(c)];
    const float k1 = static_cast<float>(sum_dy / static_cast<double>(m));
    const float k2 = static_cast<float>(sum_dy_xhat / static_cast<double>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      const float g = dy[i * channels_ + c];
      dx[i * channels_ + c] = gamma_.value[c] * inv *
                              (g - k1 - xhat_[i * channels_ + c] * k2);
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// LeakyReLU

TensorF LeakyReLU::forward(const TensorF& x, bool train) {
  TensorF y = x;
  if (train) mask_.assign(static_cast<std::size_t>(x.size()), 0);
  for (std::int64_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0.0f) {
      y[i] *= slope_;
    } else if (train) {
      mask_[static_cast<std::size_t>(i)] = 1;
    }
  }
  return y;
}

TensorF LeakyReLU::infer(const TensorF& x) const {
  TensorF y = x;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0.0f) y[i] *= slope_;
  }
  return y;
}

TensorF LeakyReLU::backward(const TensorF& dy) {
  IWG_CHECK(static_cast<std::int64_t>(mask_.size()) == dy.size());
  TensorF dx = dy;
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    if (!mask_[static_cast<std::size_t>(i)]) dx[i] *= slope_;
  }
  return dx;
}

// ---------------------------------------------------------------------------
// MaxPool2x2

TensorF MaxPool2x2::forward(const TensorF& x, bool train) {
  IWG_CHECK(x.rank() == 4 && x.dim(1) % 2 == 0 && x.dim(2) % 2 == 0);
  n_ = x.dim(0);
  ih_ = x.dim(1);
  iw_ = x.dim(2);
  c_ = x.dim(3);
  const std::int64_t oh = ih_ / 2;
  const std::int64_t ow = iw_ / 2;
  TensorF y({n_, oh, ow, c_});
  if (train) argmax_.assign(static_cast<std::size_t>(y.size()), 0);
  for (std::int64_t ni = 0; ni < n_; ++ni) {
    for (std::int64_t h = 0; h < oh; ++h) {
      for (std::int64_t w = 0; w < ow; ++w) {
        for (std::int64_t c = 0; c < c_; ++c) {
          float best = x.at(ni, 2 * h, 2 * w, c);
          std::uint8_t idx = 0;
          const float cands[3] = {x.at(ni, 2 * h, 2 * w + 1, c),
                                  x.at(ni, 2 * h + 1, 2 * w, c),
                                  x.at(ni, 2 * h + 1, 2 * w + 1, c)};
          for (int k = 0; k < 3; ++k) {
            if (cands[k] > best) {
              best = cands[k];
              idx = static_cast<std::uint8_t>(k + 1);
            }
          }
          y.at(ni, h, w, c) = best;
          if (train)
            argmax_[static_cast<std::size_t>(y.offset(ni, h, w, c))] = idx;
        }
      }
    }
  }
  return y;
}

TensorF MaxPool2x2::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4 && x.dim(1) % 2 == 0 && x.dim(2) % 2 == 0);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = x.dim(1) / 2;
  const std::int64_t ow = x.dim(2) / 2;
  const std::int64_t c = x.dim(3);
  TensorF y({n, oh, ow, c});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t h = 0; h < oh; ++h) {
      for (std::int64_t w = 0; w < ow; ++w) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          float best = x.at(ni, 2 * h, 2 * w, ch);
          best = std::max(best, x.at(ni, 2 * h, 2 * w + 1, ch));
          best = std::max(best, x.at(ni, 2 * h + 1, 2 * w, ch));
          best = std::max(best, x.at(ni, 2 * h + 1, 2 * w + 1, ch));
          y.at(ni, h, w, ch) = best;
        }
      }
    }
  }
  return y;
}

TensorF MaxPool2x2::backward(const TensorF& dy) {
  TensorF dx({n_, ih_, iw_, c_});
  const std::int64_t oh = ih_ / 2;
  const std::int64_t ow = iw_ / 2;
  for (std::int64_t ni = 0; ni < n_; ++ni) {
    for (std::int64_t h = 0; h < oh; ++h) {
      for (std::int64_t w = 0; w < ow; ++w) {
        for (std::int64_t c = 0; c < c_; ++c) {
          const std::uint8_t idx =
              argmax_[static_cast<std::size_t>(dy.offset(ni, h, w, c))];
          const std::int64_t hh = 2 * h + (idx >= 2 ? 1 : 0);
          const std::int64_t ww = 2 * w + (idx % 2);
          dx.at(ni, hh, ww, c) += dy.at(ni, h, w, c);
        }
      }
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// GlobalAvgPool

TensorF GlobalAvgPool::forward(const TensorF& x, bool /*train*/) {
  IWG_CHECK(x.rank() == 4);
  n_ = x.dim(0);
  h_ = x.dim(1);
  w_ = x.dim(2);
  c_ = x.dim(3);
  TensorF y({n_, c_});
  const float inv = 1.0f / static_cast<float>(h_ * w_);
  for (std::int64_t ni = 0; ni < n_; ++ni) {
    for (std::int64_t hh = 0; hh < h_; ++hh) {
      for (std::int64_t ww = 0; ww < w_; ++ww) {
        for (std::int64_t c = 0; c < c_; ++c) {
          y.at(ni, c, 0, 0) += x.at(ni, hh, ww, c) * inv;
        }
      }
    }
  }
  return y;
}

TensorF GlobalAvgPool::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4);
  const std::int64_t n = x.dim(0);
  const std::int64_t h = x.dim(1);
  const std::int64_t w = x.dim(2);
  const std::int64_t c = x.dim(3);
  TensorF y({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t hh = 0; hh < h; ++hh) {
      for (std::int64_t ww = 0; ww < w; ++ww) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          y.at(ni, ch, 0, 0) += x.at(ni, hh, ww, ch) * inv;
        }
      }
    }
  }
  return y;
}

TensorF GlobalAvgPool::backward(const TensorF& dy) {
  TensorF dx({n_, h_, w_, c_});
  const float inv = 1.0f / static_cast<float>(h_ * w_);
  for (std::int64_t ni = 0; ni < n_; ++ni) {
    for (std::int64_t hh = 0; hh < h_; ++hh) {
      for (std::int64_t ww = 0; ww < w_; ++ww) {
        for (std::int64_t c = 0; c < c_; ++c) {
          dx.at(ni, hh, ww, c) = dy.at(ni, c, 0, 0) * inv;
        }
      }
    }
  }
  return dx;
}

// ---------------------------------------------------------------------------
// Flatten

TensorF Flatten::forward(const TensorF& x, bool /*train*/) {
  IWG_CHECK(x.rank() == 4);
  n_ = x.dim(0);
  h_ = x.dim(1);
  w_ = x.dim(2);
  c_ = x.dim(3);
  TensorF y({n_, h_ * w_ * c_});
  for (std::int64_t i = 0; i < x.size(); ++i) y[i] = x[i];
  return y;
}

TensorF Flatten::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 4);
  TensorF y({x.dim(0), x.dim(1) * x.dim(2) * x.dim(3)});
  for (std::int64_t i = 0; i < x.size(); ++i) y[i] = x[i];
  return y;
}

TensorF Flatten::backward(const TensorF& dy) {
  TensorF dx({n_, h_, w_, c_});
  for (std::int64_t i = 0; i < dy.size(); ++i) dx[i] = dy[i];
  return dx;
}

// ---------------------------------------------------------------------------
// Linear

Linear::Linear(std::int64_t in_dim, std::int64_t out_dim, Rng& rng,
               std::string label)
    : label_(std::move(label)) {
  w_.name = label_ + ".w";
  w_.value.reset({in_dim, out_dim});
  kaiming_uniform(w_.value, in_dim, rng);
  b_.name = label_ + ".b";
  b_.value.reset({out_dim});
}

TensorF Linear::forward(const TensorF& x, bool train) {
  IWG_CHECK(x.rank() == 2 && x.dim(1) == w_.value.dim(0));
  const std::int64_t n = x.dim(0);
  const std::int64_t d = x.dim(1);
  const std::int64_t m = w_.value.dim(1);
  TensorF y({n, m});
  parallel_for(n, [&](std::int64_t i) {
    float* yr = y.data() + i * m;
    for (std::int64_t j = 0; j < m; ++j) yr[j] = b_.value[j];
    const float* xr = x.data() + i * d;
    for (std::int64_t k = 0; k < d; ++k) {
      const float xv = xr[k];
      if (xv == 0.0f) continue;
      const float* wr = w_.value.data() + k * m;
      for (std::int64_t j = 0; j < m; ++j) yr[j] += xv * wr[j];
    }
  });
  if (train) {
    x_cache_ = x;
  } else {
    x_cache_ = TensorF();
  }
  return y;
}

TensorF Linear::infer(const TensorF& x) const {
  IWG_CHECK(x.rank() == 2 && x.dim(1) == w_.value.dim(0));
  const std::int64_t n = x.dim(0);
  const std::int64_t d = x.dim(1);
  const std::int64_t m = w_.value.dim(1);
  TensorF y({n, m});
  parallel_for(n, [&](std::int64_t i) {
    float* yr = y.data() + i * m;
    for (std::int64_t j = 0; j < m; ++j) yr[j] = b_.value[j];
    const float* xr = x.data() + i * d;
    for (std::int64_t k = 0; k < d; ++k) {
      const float xv = xr[k];
      if (xv == 0.0f) continue;
      const float* wr = w_.value.data() + k * m;
      for (std::int64_t j = 0; j < m; ++j) yr[j] += xv * wr[j];
    }
  });
  return y;
}

TensorF Linear::backward(const TensorF& dy) {
  IWG_CHECK(!x_cache_.empty());
  const std::int64_t n = dy.dim(0);
  const std::int64_t d = w_.value.dim(0);
  const std::int64_t m = w_.value.dim(1);
  // db, dw
  TensorF& db = b_.ensure_grad();
  TensorF& dw = w_.ensure_grad();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* gr = dy.data() + i * m;
    for (std::int64_t j = 0; j < m; ++j) db[j] += gr[j];
    const float* xr = x_cache_.data() + i * d;
    for (std::int64_t k = 0; k < d; ++k) {
      const float xv = xr[k];
      if (xv == 0.0f) continue;
      float* wg = dw.data() + k * m;
      for (std::int64_t j = 0; j < m; ++j) wg[j] += xv * gr[j];
    }
  }
  // dx = dy · W^T
  TensorF dx({n, d});
  parallel_for(n, [&](std::int64_t i) {
    const float* gr = dy.data() + i * m;
    float* xr = dx.data() + i * d;
    for (std::int64_t k = 0; k < d; ++k) {
      const float* wr = w_.value.data() + k * m;
      float acc = 0.0f;
      for (std::int64_t j = 0; j < m; ++j) acc += gr[j] * wr[j];
      xr[k] = acc;
    }
  });
  return dx;
}

}  // namespace iwg::nn

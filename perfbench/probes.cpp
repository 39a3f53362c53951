#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "core/gamma_host.hpp"
#include "reference/im2col_gemm.hpp"
#include "stats.hpp"

namespace perfbench {

using iwg::TensorF;
namespace nn = iwg::nn;

const char* part_name(Part p) {
  switch (p) {
    case Part::kConvUnit: return "conv_unit";
    case Part::kConvStrided: return "conv_strided";
    case Part::kBn: return "bn";
    case Part::kAct: return "act";
    case Part::kPool: return "pool";
    case Part::kResidualAdd: return "residual_add";
    case Part::kHead: return "head";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Replay: the constructors below follow nn::make_vgg / nn::make_resnet and
// nn::ResidualBlock statement for statement, so the Rng is consumed in the
// same order and every weight matches.

void Replay::layer(Part part, nn::LayerPtr l) {
  Block b;
  b.main.push_back(Op{part, std::move(l)});
  blocks_.push_back(std::move(b));
}

void Replay::conv(std::int64_t in, std::int64_t out, std::int64_t f,
                  std::int64_t stride, nn::ConvEngine engine, iwg::Rng& rng,
                  std::vector<Op>& into) {
  auto c = std::make_unique<nn::Conv2D>(in, out, f, stride, f / 2, engine, rng);
  const nn::Param* w = c->params().front();
  into.push_back(Op{stride == 1 ? Part::kConvUnit : Part::kConvStrided,
                    std::move(c), stride, f / 2, w});
}

Replay Replay::vgg16(const nn::ModelConfig& cfg) {
  Replay r;
  r.winograd_ = cfg.engine == nn::ConvEngine::kWinograd;
  iwg::Rng rng(cfg.seed);
  const std::vector<int> convs{2, 2, 3, 3, 3};
  std::int64_t ch = 3;
  std::int64_t spatial = cfg.image_size;
  for (std::size_t stage = 0; stage < convs.size(); ++stage) {
    const std::int64_t width =
        cfg.base_channels << std::min<std::size_t>(stage, 3);
    for (int i = 0; i < convs[stage]; ++i) {
      Block b;
      r.conv(ch, width, 3, 1, cfg.engine, rng, b.main);
      r.blocks_.push_back(std::move(b));
      if (i == 0) {
        r.layer(Part::kBn, std::make_unique<nn::BatchNorm2D>(width));
      }
      r.layer(Part::kAct, std::make_unique<nn::LeakyReLU>());
      ch = width;
    }
    if (spatial >= 8) {
      r.layer(Part::kPool, std::make_unique<nn::MaxPool2x2>());
      spatial /= 2;
    }
  }
  r.layer(Part::kHead, std::make_unique<nn::Flatten>());
  const std::int64_t feat = spatial * spatial * ch;
  r.layer(Part::kHead,
          std::make_unique<nn::Linear>(feat, 4 * cfg.base_channels, rng));
  r.layer(Part::kHead, std::make_unique<nn::LeakyReLU>());
  r.layer(Part::kHead, std::make_unique<nn::Linear>(4 * cfg.base_channels,
                                                    cfg.num_classes, rng));
  return r;
}

Replay Replay::resnet18(const nn::ModelConfig& cfg) {
  Replay r;
  r.winograd_ = cfg.engine == nn::ConvEngine::kWinograd;
  iwg::Rng rng(cfg.seed);
  const std::int64_t c0 = cfg.base_channels;
  {
    Block b;
    r.conv(3, c0, 3, 1, cfg.engine, rng, b.main);
    r.blocks_.push_back(std::move(b));
  }
  r.layer(Part::kBn, std::make_unique<nn::BatchNorm2D>(c0));
  r.layer(Part::kAct, std::make_unique<nn::LeakyReLU>());
  std::int64_t ch = c0;
  std::int64_t spatial = cfg.image_size;
  for (int stage = 0; stage < 4; ++stage) {
    const std::int64_t width = c0 << stage;
    for (int i = 0; i < 2; ++i) {
      const std::int64_t stride = (i == 0 && stage > 0 && spatial >= 8) ? 2 : 1;
      Block b;
      b.residual = true;
      r.conv(ch, width, 3, stride, cfg.engine, rng, b.main);
      b.main.push_back(
          Op{Part::kBn, std::make_unique<nn::BatchNorm2D>(width)});
      b.main.push_back(Op{Part::kAct, std::make_unique<nn::LeakyReLU>()});
      r.conv(width, width, 3, 1, cfg.engine, rng, b.main);
      b.main.push_back(
          Op{Part::kBn, std::make_unique<nn::BatchNorm2D>(width)});
      if (stride != 1 || ch != width) {
        r.conv(ch, width, 1, stride, cfg.engine, rng, b.proj);
        b.proj.push_back(
            Op{Part::kBn, std::make_unique<nn::BatchNorm2D>(width)});
      }
      r.blocks_.push_back(std::move(b));
      r.layer(Part::kAct, std::make_unique<nn::LeakyReLU>());
      if (stride == 2) spatial /= 2;
      ch = width;
    }
  }
  r.layer(Part::kHead, std::make_unique<nn::GlobalAvgPool>());
  r.layer(Part::kHead,
          std::make_unique<nn::Linear>(ch, cfg.num_classes, rng));
  return r;
}

TensorF Replay::run(const TensorF& x, PartMs& part_ms,
                    std::vector<ConvLayer>* convs) const {
  auto apply = [&](const std::vector<Op>& ops, TensorF h) {
    for (const Op& op : ops) {
      if (convs != nullptr && op.w != nullptr) {
        iwg::ConvShape s{.n = h.dim(0), .ih = h.dim(1), .iw = h.dim(2),
                         .ic = h.dim(3), .oc = op.w->value.dim(0),
                         .fh = op.w->value.dim(1), .fw = op.w->value.dim(2),
                         .ph = op.pad, .pw = op.pad};
        convs->push_back(ConvLayer{s, op.stride, op.w, winograd_});
      }
      Span span(std::string("nn.") + part_name(op.part));
      const auto t0 = Clock::now();
      h = op.layer->infer(h);
      part_ms[static_cast<int>(op.part)] += 1e3 * seconds_since(t0);
    }
    return h;
  };
  TensorF h = x;
  for (const Block& b : blocks_) {
    if (!b.residual) {
      h = apply(b.main, std::move(h));
      continue;
    }
    TensorF y = apply(b.main, h);
    const TensorF skip = apply(b.proj, h);
    Span span("nn.residual_add");
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < y.size(); ++i) y[i] += skip[i];
    part_ms[static_cast<int>(Part::kResidualAdd)] += 1e3 * seconds_since(t0);
    h = std::move(y);
  }
  return h;
}

LayerProbe probe_layers(const nn::Model& model, const Replay& replay,
                        const TensorF& x, int reps) {
  LayerProbe p;
  p.reps = reps;
  PartMs scratch{};
  // Warm-up: fills both models' filter transforms, collects geometry.
  (void)model.infer(x);
  (void)replay.run(x, scratch, &p.convs);
  // Alternate which runs first so neither inherits the other's warm caches.
  for (int i = 0; i < reps; ++i) {
    TensorF y, z;
    for (int turn = 0; turn < 2; ++turn) {
      if ((turn + i) % 2 == 0) {
        Span span("nn.Model::infer");
        const auto t0 = Clock::now();
        y = model.infer(x);
        p.infer_ms += 1e3 * seconds_since(t0);
      } else {
        Span span("nn.replay");
        z = replay.run(x, p.part_ms);
      }
    }
    p.bitwise = bitwise_equal(z, y) && p.bitwise;
  }
  p.infer_ms /= reps;
  for (double& v : p.part_ms) v /= reps;
  return p;
}

// ---------------------------------------------------------------------------
// Entry-point probes

namespace {

/// Random activation x and output gradient dy of one conv.
struct ConvData {
  TensorF x, dy;
};

/// Times `call(conv, data)` over every conv accepted by `keep`, `reps`
/// times after one warm-up pass; reports the median per-rep total.
ShapeProbe probe_shapes(
    const std::vector<ConvLayer>& convs, int reps, const std::string& name,
    const std::function<bool(const ConvLayer&)>& keep,
    const std::function<void(const ConvLayer&, const ConvData&)>& call) {
  ShapeProbe p;
  std::vector<const ConvLayer*> used;
  std::vector<ConvData> data;
  for (const ConvLayer& c : convs) {
    if (!keep(c)) continue;
    used.push_back(&c);
    const std::uint64_t seed = 0x5eed + 2 * used.size();
    data.push_back({random_tensor({c.s.n, c.s.ih, c.s.iw, c.s.ic}, seed),
                    random_tensor({c.s.n, c.oh(), c.ow(), c.s.oc}, seed + 1)});
    p.flops += c.flops();
    p.bytes += c.bytes();
  }
  if (used.empty()) return p;
  for (std::size_t i = 0; i < used.size(); ++i) call(*used[i], data[i]);
  std::vector<double> totals;
  for (int r = 0; r < reps; ++r) {
    Span span(name);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < used.size(); ++i) call(*used[i], data[i]);
    totals.push_back(1e3 * seconds_since(t0));
  }
  p.ms = median(totals);
  p.reps = reps;
  return p;
}

bool unit(const ConvLayer& c) { return c.stride == 1; }
bool strided(const ConvLayer& c) { return c.stride != 1; }

iwg::core::ConvOptions layer_options(const ConvLayer& c) {
  iwg::core::ConvOptions o;
  o.use_winograd = c.winograd;
  o.filter_cache = &iwg::core::FilterTransformCache::global();
  o.weights_version = c.w->version;
  return o;
}

}  // namespace

ShapeProbe probe_gamma(const std::vector<ConvLayer>& convs, int reps) {
  return probe_shapes(convs, reps, "core.conv2d", unit,
                      [](const ConvLayer& c, const ConvData& d) {
                        (void)iwg::core::conv2d(d.x, c.w->value, c.s,
                                                layer_options(c));
                      });
}

ShapeProbe probe_filter_transform(const std::vector<ConvLayer>& convs,
                                  int reps) {
  return probe_shapes(
      convs, reps, "core.transform_filter_host", unit,
      [](const ConvLayer& c, const ConvData&) {
        for (const auto& seg : iwg::core::plan_for(c.s, layer_options(c))) {
          if (!seg.is_gemm) {
            (void)iwg::core::transform_filter_host(c.w->value, c.s, seg.cfg);
          }
        }
      });
}

ShapeProbe probe_strided(const std::vector<ConvLayer>& convs, int reps) {
  return probe_shapes(convs, reps, "ref.conv2d_implicit_gemm_strided", strided,
                      [](const ConvLayer& c, const ConvData& d) {
                        (void)iwg::ref::conv2d_implicit_gemm_strided(
                            d.x, c.w->value, c.s, c.stride, c.stride);
                      });
}

ShapeProbe probe_deconv(const std::vector<ConvLayer>& convs, int reps) {
  return probe_shapes(convs, reps, "core.deconv2d", unit,
                      [](const ConvLayer& c, const ConvData& d) {
                        (void)iwg::core::deconv2d(d.dy, c.w->value, c.s,
                                                  layer_options(c));
                      });
}

ShapeProbe probe_filter_grad(const std::vector<ConvLayer>& convs, int reps) {
  return probe_shapes(convs, reps, "core.conv2d_filter_grad_winograd", unit,
                      [](const ConvLayer& c, const ConvData& d) {
                        (void)iwg::core::conv2d_filter_grad_winograd(d.x, d.dy,
                                                                     c.s);
                      });
}

std::int64_t pool_parties() {
  return static_cast<std::int64_t>(iwg::ThreadPool::global().size()) + 1;
}

double probe_parallel_for_us(int reps) {
  const std::int64_t parties = pool_parties();
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    iwg::parallel_for(parties, [](std::int64_t) {});
    us.push_back(1e6 * seconds_since(t0));
  }
  return median(us);
}

double rel_error(const TensorF& a, const TensorF& b) {
  if (!a.same_shape(b)) return INFINITY;
  double diff = 0.0, scale = 1.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, static_cast<double>(std::fabs(a[i] - b[i])));
    scale = std::max(scale, static_cast<double>(std::fabs(b[i])));
  }
  return diff / scale;
}

bool bitwise_equal(const TensorF& a, const TensorF& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TensorF random_tensor(const std::vector<std::int64_t>& dims,
                      std::uint64_t seed) {
  TensorF t(dims);
  iwg::Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

}  // namespace perfbench

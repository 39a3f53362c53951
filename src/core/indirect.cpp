#include "core/indirect.hpp"

#include <algorithm>
#include <utility>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/conv_api.hpp"
#include "core/filter_cache.hpp"
#include "core/host_kernels.hpp"
#include "winograd/plan.hpp"

namespace iwg::core {

IndirectionTable build_indirection_table(std::span<const ImageView> images,
                                         const ConvShape& geom,
                                         ScratchArena& arena) {
  IndirectionTable table;
  table.images.reserve(images.size());
  table.image_class.reserve(images.size());
  for (const ImageView& v : images) {
    IWG_CHECK_MSG(v.x != nullptr && v.y != nullptr,
                  "indirect dispatch needs input and output storage");
    int cls = -1;
    for (std::size_t c = 0; c < table.classes.size(); ++c) {
      if (table.classes[c].ih == v.ih && table.classes[c].iw == v.iw) {
        cls = static_cast<int>(c);
        break;
      }
    }
    if (cls < 0) {
      ConvShape s = geom;
      s.n = 1;
      s.ih = v.ih;
      s.iw = v.iw;
      s.validate();
      cls = static_cast<int>(table.classes.size());
      table.classes.push_back(s);
    }
    const ConvShape& s = table.classes[static_cast<std::size_t>(cls)];
    const std::int64_t table_len = s.ih + 2 * s.ph;
    auto** rows = static_cast<const float**>(
        arena.alloc(static_cast<std::size_t>(table_len) * sizeof(float*)));
    detail::fill_row_table(rows, v.x, s.ih, s.iw, s.ic, s.ph);
    detail::ImageTask t;
    t.rows = rows;
    t.y = v.y;
    t.ih = s.ih;
    t.iw = s.iw;
    t.oh = s.oh();
    t.ow = s.ow();
    table.images.push_back(t);
    table.image_class.push_back(cls);
  }
  return table;
}

void conv2d_gamma_host_indirect(std::span<const ImageView> images,
                                const TensorF& w, const ConvShape& geom,
                                const IndirectOptions& opts) {
  if (images.empty()) return;
  IWG_CHECK(w.rank() == 4 && w.dim(0) == geom.oc && w.dim(1) == geom.fh &&
            w.dim(2) == geom.fw && w.dim(3) == geom.ic);

  // The table (row-pointer arrays included) lives in this scope; task
  // bodies open nested scopes on their own threads' arenas.
  ScratchArena& arena = ScratchArena::local();
  const ScratchArena::Scope scope(arena);
  const IndirectionTable table = build_indirection_table(images, geom, arena);

  IWG_TRACE_SPAN(span, "conv2d_host_indirect", "host");
  if (span.active()) {
    span.arg("images", static_cast<std::int64_t>(images.size()))
        .arg("shape_classes", static_cast<std::int64_t>(table.classes.size()))
        .arg("isa", host_kernels().name);
  }
  static trace::Counter& dispatches =
      trace::MetricsRegistry::global().counter("conv.indirect.dispatches");
  static trace::Counter& image_count =
      trace::MetricsRegistry::global().counter("conv.indirect.images");
  static trace::Counter& gamma_segs =
      trace::MetricsRegistry::global().counter("conv.segments_gamma");
  static trace::Counter& gemm_segs =
      trace::MetricsRegistry::global().counter("conv.segments_gemm");
  dispatches.add();
  image_count.add(static_cast<std::int64_t>(images.size()));

  // One boundary plan per shape class — plan_for depends only on OW, FW and
  // the flags, so this is the plan the dense path would pick for a batch-1
  // dispatch of the same image (the bitwise-parity anchor).
  ConvOptions copts;
  copts.use_winograd = opts.use_winograd;
  copts.allow_ruse = opts.allow_ruse;
  copts.allow_c64 = opts.allow_c64;
  std::vector<std::vector<Segment>> plans;
  plans.reserve(table.classes.size());
  for (const ConvShape& s : table.classes) plans.push_back(plan_for(s, copts));

  // ĝ memo per (α, r) across every class's segments, through the cross-call
  // cache when the caller provides one (same keying as conv2d_gamma_host).
  std::vector<std::pair<std::pair<int, int>, FilterTransformCache::Filter>>
      call_memo;
  auto ghat_for = [&](const GammaConfig& cfg,
                      const ConvShape& s) -> const float* {
    const std::pair<int, int> key_geom{cfg.alpha, cfg.r};
    for (const auto& e : call_memo) {
      if (e.first == key_geom) {
        filter_transform_hits().add();
        return e.second->data();
      }
    }
    FilterTransformCache::Filter ghat;
    if (opts.fc.cache != nullptr) {
      FilterTransformCache::Key key;
      key.weights = opts.fc.key != nullptr
                        ? opts.fc.key
                        : static_cast<const void*>(w.data());
      key.version = opts.fc.version;
      key.alpha = cfg.alpha;
      key.r = cfg.r;
      key.kind = opts.fc.kind;
      ghat = opts.fc.cache->get_or_compute(
          key, [&] { return transform_filter_host(w, s, cfg); });
    } else {
      filter_transform_misses().add();
      ghat = std::make_shared<const TensorF>(transform_filter_host(w, s, cfg));
    }
    call_memo.emplace_back(key_geom, std::move(ghat));
    return call_memo.back().second->data();
  };

  // Flatten every (image, segment) into a run of independent unit tasks —
  // Γ tile columns or GEMM output rows — and dispatch them under ONE
  // parallel_for: this is the "one Γ dispatch over mixed-shape traffic".
  struct Chunk {
    const detail::ImageTask* img;
    const ConvShape* s;
    const Segment* seg;
    const WinogradPlan* plan;  // nullptr for GEMM segments
    const float* ghat;         // nullptr for GEMM segments
    std::int64_t begin;        // global unit offset of this chunk
  };
  std::vector<Chunk> chunks;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < table.images.size(); ++i) {
    const int cls = table.image_class[i];
    const ConvShape& s = table.classes[static_cast<std::size_t>(cls)];
    for (const Segment& seg : plans[static_cast<std::size_t>(cls)]) {
      Chunk c;
      c.img = &table.images[i];
      c.s = &s;
      c.seg = &seg;
      if (seg.is_gemm) {
        gemm_segs.add();
        c.plan = nullptr;
        c.ghat = nullptr;
        c.begin = total;
        total += s.oh();
      } else {
        gamma_segs.add();
        c.plan = &get_plan(seg.cfg.n, seg.cfg.r);
        c.ghat = ghat_for(seg.cfg, s);
        c.begin = total;
        total += seg.ow_len / seg.cfg.n;
      }
      chunks.push_back(c);
    }
  }

  const HostKernels& hk = host_kernels();
  const float* wdata = w.data();
  parallel_for(total, parallel_grain(total), [&](std::int64_t u) {
    // Locate the chunk containing unit u (last chunk with begin <= u).
    const auto it = std::upper_bound(
        chunks.begin(), chunks.end(), u,
        [](std::int64_t v, const Chunk& c) { return v < c.begin; });
    const Chunk& c = *(it - 1);
    const std::int64_t local = u - c.begin;
    if (c.seg->is_gemm) {
      detail::gemm_row(*c.img, *c.s, wdata, hk, local, c.seg->ow_start,
                       c.seg->ow_len);
    } else {
      detail::gamma_tile_column(*c.img, *c.s, c.seg->cfg, *c.plan, c.ghat,
                                hk, c.seg->ow_start, local);
    }
  });
}

}  // namespace iwg::core

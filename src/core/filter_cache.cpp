#include "core/filter_cache.hpp"

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/host_kernels.hpp"
#include "winograd/plan.hpp"

namespace iwg::core {

trace::Counter& filter_transform_hits() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("host.filter_transform.hits");
  return c;
}

trace::Counter& filter_transform_misses() {
  static trace::Counter& c =
      trace::MetricsRegistry::global().counter("host.filter_transform.misses");
  return c;
}

TensorF transform_filter_host(const TensorF& w, const ConvShape& s,
                              const GammaConfig& cfg) {
  const int alpha = cfg.alpha;
  const int r = cfg.r;
  const WinogradPlan& plan = get_plan(cfg.n, r);
  const HostKernels& hk = host_kernels();
  TensorF ghat({s.fh, alpha, s.ic, s.oc});
  // The r filter taps of one (oc, fh) slice are IC-contiguous NHWC-style
  // rows, so the G transform runs IC-lane-parallel; the scatter into the
  // ĝ[fh][t][ic][oc] layout (OC innermost for the axpy kernel) is the only
  // scalar step left.
  parallel_for(s.fh * s.oc, [&](std::int64_t job) {
    const std::int64_t fh = job / s.oc;
    const std::int64_t oc = job % s.oc;
    ScratchArena& arena = ScratchArena::local();
    const ScratchArena::Scope scope(arena);
    float* ghat_ic =
        arena.alloc_floats(static_cast<std::size_t>(alpha) * s.ic);
    const float* taps[16];
    for (int j = 0; j < r; ++j) taps[j] = &w.at(oc, fh, j, 0);
    hk.transform_cols(plan.g_f.data(), alpha, r, taps, s.ic, ghat_ic, s.ic);
    for (int t = 0; t < alpha; ++t) {
      const float* src = ghat_ic + static_cast<std::int64_t>(t) * s.ic;
      float* dst = ghat.data() +
                   ((fh * alpha + t) * s.ic) * static_cast<std::size_t>(s.oc) +
                   static_cast<std::size_t>(oc);
      for (std::int64_t ic = 0; ic < s.ic; ++ic) dst[ic * s.oc] = src[ic];
    }
  });
  return ghat;
}

std::size_t FilterTransformCache::KeyHash::operator()(const Key& k) const {
  std::size_t h = std::hash<const void*>{}(k.weights);
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(std::hash<std::uint64_t>{}(k.version));
  mix(static_cast<std::size_t>(k.alpha) * 31 + static_cast<std::size_t>(k.r));
  mix(static_cast<std::size_t>(k.kind));
  return h;
}

FilterTransformCache::FilterTransformCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

FilterTransformCache::Filter FilterTransformCache::get_or_compute(
    const Key& key, const std::function<TensorF()>& compute) {
  {
    std::lock_guard lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      filter_transform_hits().add();
      return it->second.filter;
    }
  }
  filter_transform_misses().add();
  IWG_TRACE_SCOPE("filter_transform", "host");
  Filter filter = std::make_shared<const TensorF>(compute());
  std::lock_guard lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Concurrent duplicate miss: the transform is deterministic, keep the
    // first insertion.
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.filter;
  }
  // A new version supersedes older versions of the same weights/config.
  for (auto mit = map_.begin(); mit != map_.end();) {
    const Key& k = mit->first;
    if (k.weights == key.weights && k.alpha == key.alpha && k.r == key.r &&
        k.kind == key.kind && k.version != key.version) {
      lru_.erase(mit->second.lru);
      mit = map_.erase(mit);
    } else {
      ++mit;
    }
  }
  while (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{filter, lru_.begin()});
  return filter;
}

void FilterTransformCache::invalidate(const void* weights) {
  std::lock_guard lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.weights == weights) {
      lru_.erase(it->second.lru);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

void FilterTransformCache::clear() {
  std::lock_guard lock(mu_);
  map_.clear();
  lru_.clear();
}

std::size_t FilterTransformCache::size() const {
  std::lock_guard lock(mu_);
  return map_.size();
}

FilterTransformCache& FilterTransformCache::global() {
  static FilterTransformCache* cache = new FilterTransformCache();
  return *cache;
}

}  // namespace iwg::core

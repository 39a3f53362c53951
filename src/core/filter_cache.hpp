// Pre-transformed-filter cache for the host engine.
//
// The host fast path used to re-derive the transformed filters ĝ
// inside *every* Γ segment execution — so a multi-segment
// boundary plan re-paid the α·FH·IC·OC transform per segment, and a training
// step re-paid it on every forward and backward even though the weights only
// change once per optimizer step. This cache memoizes ĝ under
// (weights identity, weights version, α, r, kind):
//
//   * weights identity is the storage address of the filter tensor — stable
//     for the life of an `nn::Param` — plus a monotonically bumped version
//     the optimizers increment on every update, so a stale transform can
//     never be served after a weight update;
//   * ĝ depends on the Γ geometry only through (α, r) (the G matrix), so a
//     ruse prefix and its base mop-up segment share one entry;
//   * `kind` distinguishes the transforms of one weight tensor: forward,
//     backward-data (rotated / channel-swapped filter), and the stride-2
//     space-to-depth rewrite (conv2d_stride2), whose rearranged filter w'
//     is itself an entry (α = r = 0) beside the ĝ of w'.
//
// Entries are shared_ptrs: a conv executing against an entry keeps it alive
// even if it is evicted or invalidated mid-flight. Misses compute outside
// the lock (a concurrent duplicate miss computes twice, deterministically
// identically — same discipline as the PlanCache). Capacity is a small LRU
// bound; `invalidate(weights)` drops every entry of a weight tensor so a
// freed address cannot alias a later allocation's version numbering.
//
// Observability: `host.filter_transform.hits` / `host.filter_transform.misses`
// count every ĝ (and w') request across the cache and the per-call reuse
// path in `conv2d_gamma_host`, so a report shows transforms computed once per
// (weights version, config) rather than once per call.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/gamma_config.hpp"
#include "tensor/conv_shape.hpp"
#include "tensor/tensor.hpp"

namespace iwg::trace {
class Counter;
}

namespace iwg::core {

/// ĝ for one (filter, Γ geometry), as an FH×α×IC×OC tensor: FH·α planes
/// of IC·OC floats, each packed in 8-wide OC panels (element (ic, oc) of
/// plane (fh, t) at ghat_index(ic, oc, IC, OC), host_kernels.hpp) so the
/// host engine's rank-1 kernels read it contiguously. `w` is the original
/// OC,FH,FW,IC filter.
TensorF transform_filter_host(const TensorF& w, const ConvShape& s,
                              const GammaConfig& cfg);

/// Which derived filter of a weight tensor a cache entry holds.
enum class FilterKind : std::uint8_t {
  kForward,       ///< ĝ of the weights
  kDeconv,        ///< ĝ of the backward-data (rotated) filter
  kSpaceToDepth,  ///< the stride-2 rewrite's w' (α = r = 0) and its ĝ
};

/// The metrics-registry counters the host filter-transform paths feed
/// (stable references, cheap to cache at call sites).
trace::Counter& filter_transform_hits();
trace::Counter& filter_transform_misses();

class FilterTransformCache {
 public:
  struct Key {
    const void* weights = nullptr;  ///< identity of the weight storage
    std::uint64_t version = 0;      ///< bumped on every weight update
    int alpha = 0;                  ///< ĝ depends on the Γ geometry …
    int r = 0;                      ///< … only through (α, r)
    FilterKind kind = FilterKind::kForward;  ///< which derived filter
    friend bool operator==(const Key&, const Key&) = default;
  };

  /// A cached filter tensor (ĝ, or the rewritten filter w').
  using Filter = std::shared_ptr<const TensorF>;

  explicit FilterTransformCache(std::size_t capacity = 128);

  /// The cached filter for `key`, computing via `compute` on miss (outside
  /// the lock). A miss whose key names a *new version* of already-cached
  /// weights drops the stale versions of the same (weights, α, r, kind) —
  /// they are unreachable once the version has moved on.
  Filter get_or_compute(const Key& key,
                        const std::function<TensorF()>& compute);

  /// Drop every entry for a weight tensor (layer teardown: a later
  /// allocation could reuse the address and collide on version numbering).
  void invalidate(const void* weights);
  void clear();
  std::size_t size() const;

  /// Process-wide instance (what `src/nn` threads through ConvOptions).
  static FilterTransformCache& global();

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  using LruList = std::list<Key>;
  struct Entry {
    Filter filter;
    LruList::iterator lru;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::unordered_map<Key, Entry, KeyHash> map_;
  LruList lru_;  ///< front = most recently used
};

}  // namespace iwg::core

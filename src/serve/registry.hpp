// ModelRegistry: the fleet's tenant table — N named models, each with its
// scheduling identity (priority weight, token-bucket rate limit, default
// SLO deadline, expected image geometry) and a hot-swap lock.
//
// Registration warms a replica BEFORE it becomes findable: an optional plan
// DB is merged into the PlanCache (the "find once, deploy many" flow),
// Model::pretune resolves every Winograd conv's plan chain for the
// tenant's batch geometry, and one throwaway batch populates the
// FilterTransformCache — so the first real request a tenant serves pays
// neither tuning nor transform latency.
//
// Hot weight swap — the swap-without-drop protocol:
//
//   swap_weights(tenant, path)
//     1. unique_lock tenant->swap_mu      — waits for in-flight batches
//        (dispatch holds it shared), blocks new ones;
//     2. nn::load_weights(model, path)    — in-place update; every Param's
//        version is bumped by the loader;
//     3. weight_epoch++ and unlock        — dispatch resumes on new weights.
//
// The FilterTransformCache is keyed on (weights address, Param::version,
// α, r, kind), so the version bump IS the invalidation: the first post-
// swap batch misses, computes the new ĝ, and the miss path drops the stale
// versions of the same weights. Batches that were in flight during step 1
// already finished on the old transforms — no request is ever dropped or
// served a torn weight state. An optional post-swap prewarm (under a shared
// lock, concurrent with traffic) re-populates the transform cache so the
// first real request doesn't pay the α·FH·IC·OC transforms either.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "serve/request.hpp"

namespace iwg::sim {
struct DeviceProfile;
}

namespace iwg::serve {

/// Token-bucket admission limit: sustained `rate_per_sec` with bursts up to
/// `burst` requests. rate_per_sec <= 0 disables the limit entirely.
struct TokenBucketConfig {
  double rate_per_sec = 0.0;
  double burst = 1.0;
};

/// Thread-safe token bucket. Tokens accrue continuously at rate_per_sec up
/// to the burst capacity; try_acquire spends one per admitted request.
class TokenBucket {
 public:
  explicit TokenBucket(TokenBucketConfig cfg);

  /// Consume one token if available (always true when unlimited).
  bool try_acquire(Clock::time_point now = Clock::now());

  /// Current fill after accrual, without spending (observability — the
  /// /statusz page reports each tenant's admission headroom). Returns -1
  /// when the bucket is unlimited (rate_per_sec <= 0).
  double available(Clock::time_point now = Clock::now());

 private:
  const TokenBucketConfig cfg_;
  std::mutex mu_;
  double tokens_;
  Clock::time_point last_;
};

/// One tenant's scheduling identity.
struct TenantConfig {
  std::string id;
  /// Weighted-fair share: under backlog, a tenant's throughput share tends
  /// to weight / Σ weights. Must be > 0.
  double weight = 1.0;
  TokenBucketConfig rate;  ///< admission rate limit (default: unlimited)
  /// Deadline applied by submit() when the caller gives none; 0 → none.
  std::chrono::microseconds default_deadline{0};
  /// Expected image geometry (pre-tune/pre-warm target; other shapes are
  /// still served via the ragged path).
  std::int64_t image_h = 16;
  std::int64_t image_w = 16;
  std::int64_t channels = 3;
  std::size_t queue_capacity = 256;  ///< per-tenant pending bound
  std::size_t max_batch = 8;         ///< micro-batch cap for this tenant
};

/// What register_model does before the tenant takes traffic.
struct WarmupOptions {
  /// One throwaway batch to populate the FilterTransformCache and size the
  /// scratch arenas.
  bool prewarm = true;
  /// Resolve conv plans for the tenant's batch geometry at registration
  /// (needs `device`; square images only).
  bool pretune_plans = false;
  const sim::DeviceProfile* device = nullptr;
  /// Optional plan DB merged into PlanCache::global() first, so pretune
  /// resolves from tuned entries instead of re-searching.
  std::string plan_db;
};

class ModelRegistry {
 public:
  /// One registered tenant. The swap lock is the entire hot-swap protocol:
  /// dispatch holds it shared for the duration of a batch, swap_weights
  /// holds it exclusive for the in-place weight load.
  struct Tenant {
    Tenant(TenantConfig c, nn::Model m)
        : cfg(std::move(c)), model(std::move(m)) {}

    const TenantConfig cfg;
    nn::Model model;
    mutable std::shared_mutex swap_mu;
    /// Completed swaps (monotone; readable without the lock).
    std::atomic<std::uint64_t> weight_epoch{0};

    /// Smallest Param::version across the model (shared-locked read). Every
    /// swap bumps every version, so this is monotone across swaps.
    std::uint64_t min_param_version();
  };
  using TenantPtr = std::shared_ptr<Tenant>;

  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Register a named model. Warming runs BEFORE the tenant becomes
  /// findable, so a replica never takes traffic cold. Throws on empty or
  /// duplicate id, or weight <= 0.
  TenantPtr register_model(nn::Model model, TenantConfig cfg,
                           const WarmupOptions& warm = {});

  /// Remove a tenant from the table. Callers holding a TenantPtr (an
  /// in-flight batch) keep the model alive until they drop it. Returns
  /// false when the id is unknown.
  bool deregister(const std::string& id);

  TenantPtr find(const std::string& id) const;  ///< nullptr when unknown
  std::vector<TenantPtr> tenants() const;       ///< snapshot, id-sorted
  std::size_t size() const;

  /// Hot weight swap (see file comment). Loads weights from `path` under
  /// the tenant's exclusive swap lock, bumps weight_epoch, then (by
  /// default) prewarms the transform cache under a shared lock. Returns the
  /// model's new min Param::version. Throws on unknown tenant or a
  /// mismatched weight file; a mid-file mismatch can leave earlier params
  /// loaded, but each written param's version was bumped (no stale ĝ) and
  /// the exclusive lock was held throughout (no torn batch observed it).
  std::uint64_t swap_weights(const std::string& id, const std::string& path,
                             bool prewarm_after = true);

 private:
  static void warm(Tenant& t, const WarmupOptions& w);

  mutable std::mutex mu_;
  std::map<std::string, TenantPtr> tenants_;
};

}  // namespace iwg::serve

// FleetScheduler: multi-tenant serving over one shared worker pool.
//
// The one serving front-end: a single-model deployment is a fleet with one
// tenant. A ModelRegistry owns the tenant table (model + weight version +
// priority weight + rate limit + default SLO deadline) and the scheduler
// runs fleet-level dispatch over one worker pool:
//
//   submit(tenant, image)
//     ─▶ admission (kRejected: channel mismatch / "rate limited" /
//        "queue full")
//     ─▶ per-tenant queue, EDF- or FIFO-ordered
//     ─▶ weighted-fair dequeue across tenants (shared worker threads)
//     ─▶ run_model_batch under the tenant's shared swap lock
//     ─▶ per-request Response futures
//
// Scheduling decision rule (two levels):
//
//   * ACROSS tenants — weighted fair queuing by virtual time. Each tenant
//     carries vtime; dispatching a batch of k requests advances it by
//     k / weight, and among tenants with a dispatchable batch the scheduler
//     picks the smallest vtime. A tenant going empty→nonempty is caught up
//     to the global virtual clock (no credit hoarding), so under sustained
//     backlog per-tenant throughput shares converge to weight / Σ weights
//     while an idle tenant's unused share is redistributed.
//   * WITHIN a tenant — earliest deadline first (TenantOrder::kEdf,
//     default): submissions insert in deadline order (no-deadline last,
//     FIFO among ties), so the batch assembled under overload spends the
//     model's time on the requests that can still make their SLO.
//     TenantOrder::kFifo preserves arrival order for comparison — the
//     FIFO-vs-EDF deadline-miss experiment in bench/serving_throughput.
//
// A tenant's batch is "dispatchable" when it has max_batch requests queued,
// its oldest pending request has waited max_wait, or the tenant is closed
// (draining). The batch is the queue head in order, whatever its shapes: a
// shape-identical batch ships as one dense batch tensor, a mixed one as ONE
// ragged indirect dispatch (Model::infer_ragged).
//
// Hot swap: ModelRegistry::swap_weights runs under the tenant's exclusive
// swap lock while dispatch holds it shared — in-flight batches finish on
// the old weights/transforms, new batches see the new version, and no
// request is dropped (see registry.hpp for the protocol).
//
// Every future still resolves: admission failures resolve synchronously;
// queued requests whose deadline lapses resolve kExpired; remove_tenant
// and stop either drain the backlog or resolve it kShutdown.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.hpp"

namespace iwg::obs {
class Watchdog;
}

namespace iwg::serve {

/// Intra-tenant queue ordering.
enum class TenantOrder {
  kFifo,  ///< arrival order
  kEdf,   ///< earliest deadline first; no-deadline requests last
};

struct FleetConfig {
  unsigned workers = 2;
  /// Longest a tenant's incomplete batch is held open waiting for more
  /// arrivals, measured from when its queue last became nonempty.
  std::chrono::microseconds max_wait{2000};
  /// How long an idle worker parks before running idle-time housekeeping
  /// (arena trim, report flush).
  std::chrono::microseconds idle_wait{50000};
  TenantOrder order = TenantOrder::kEdf;
  /// Applied to every add_tenant registration (prewarm / pretune / plan DB).
  WarmupOptions warmup;
  /// Idle workers trim scratch arenas down to this retained capacity;
  /// negative → never trim.
  std::int64_t idle_trim_bytes = 64 * 1024;
  /// Period for trace/metrics report flushes from the serving loop;
  /// zero → no periodic flush. IWG_REPORT_FLUSH_MS overrides at
  /// construction (see serve::resolve_flush_period).
  std::chrono::microseconds flush_period{0};
  /// When set, each fleet worker registers a named heartbeat here and beats
  /// it once per dispatch-loop iteration — what obs::AdminServer's /healthz
  /// watches. Must outlive the scheduler.
  obs::Watchdog* watchdog = nullptr;
};

class FleetScheduler {
 public:
  /// Starts the worker pool; the fleet accepts add_tenant/submit when the
  /// constructor returns.
  explicit FleetScheduler(FleetConfig cfg);
  ~FleetScheduler();  ///< stop(/*drain=*/false)

  FleetScheduler(const FleetScheduler&) = delete;
  FleetScheduler& operator=(const FleetScheduler&) = delete;

  /// Register a tenant model (warmed per config().warmup before it becomes
  /// routable) and start serving it. Throws on duplicate/empty id or after
  /// stop().
  void add_tenant(nn::Model model, TenantConfig cfg);

  /// Deregister a tenant. Admission closes immediately; drain=true serves
  /// the backlog first, drain=false resolves it kShutdown ("tenant
  /// deregistered"). Either way every queued future resolves and
  /// in-flight batches finish (zero drops). Returns false for unknown ids.
  bool remove_tenant(const std::string& id, bool drain = true);

  /// Submit one H×W×C image for `tenant` (default overload applies the
  /// tenant's default_deadline). Unknown tenants, and images whose channel
  /// count differs from TenantConfig::channels, resolve kRejected.
  std::future<Response> submit(const std::string& tenant, TensorF image);
  std::future<Response> submit(const std::string& tenant, TensorF image,
                               Deadline deadline);

  /// Hot weight swap, forwarded to the registry (see registry.hpp).
  /// Returns the model's new min Param::version.
  std::uint64_t swap_weights(const std::string& tenant,
                             const std::string& path);

  /// Stop the fleet: close every tenant, then drain (serve) or shed
  /// (kShutdown) the backlogs and join the workers. Idempotent.
  void stop(bool drain = true);

  struct TenantStats {
    std::int64_t accepted = 0;   ///< admitted into the tenant queue
    std::int64_t completed = 0;  ///< served with kOk
    std::int64_t rejected = 0;   ///< refused at admission (rate/full/closed)
    std::int64_t expired = 0;    ///< deadline-shed before dispatch
    std::int64_t shed = 0;       ///< kShutdown-resolved at stop/deregister
    std::int64_t batches = 0;
    std::int64_t indirect_batches = 0;
    bool all_resolved() const { return accepted == completed + expired + shed; }
  };
  struct Stats {
    TenantStats total;  ///< sums across live and deregistered tenants
    std::map<std::string, TenantStats> tenants;
    bool all_resolved() const { return total.all_resolved(); }
  };
  Stats stats() const;

  /// Readiness, what obs::AdminServer's /readyz gates on: at least one
  /// tenant is registered and the fleet is accepting. Registration warms a
  /// tenant BEFORE it becomes routable, so a listed tenant is a warm one.
  bool ready() const;

  /// The /statusz page: per-tenant queue depth, token-bucket fill, WFQ
  /// virtual time, and weight epoch, plus process-wide plan-cache stats,
  /// scratch-arena high-water, and the resolved host ISA — one JSON object.
  std::string statusz_json() const;

  ModelRegistry& registry() { return registry_; }
  const FleetConfig& config() const { return cfg_; }
  std::size_t tenant_count() const;
  std::size_t queue_depth(const std::string& tenant) const;

 private:
  /// Mutable scheduler state of one tenant; queue and vtime are guarded by
  /// the fleet mutex, stats are atomics (run_batch updates them off-lock).
  struct TenantState {
    explicit TenantState(ModelRegistry::TenantPtr t)
        : tenant(std::move(t)), bucket(tenant->cfg.rate) {}

    const ModelRegistry::TenantPtr tenant;
    TokenBucket bucket;
    std::deque<Request> q;  ///< EDF- or FIFO-ordered (guarded by fleet mu_)
    bool closed = false;    ///< no more admissions; backlog drains/sheds
    /// When the queue last became nonempty — the max_wait anchor.
    Clock::time_point since{};
    double vtime = 0.0;  ///< weighted-fair virtual finish time

    std::atomic<std::int64_t> accepted{0};
    std::atomic<std::int64_t> completed{0};
    std::atomic<std::int64_t> rejected{0};
    std::atomic<std::int64_t> expired{0};
    std::atomic<std::int64_t> shed{0};
    std::atomic<std::int64_t> batches{0};
    std::atomic<std::int64_t> indirect_batches{0};
  };
  using StatePtr = std::shared_ptr<TenantState>;

  struct WorkItem {
    StatePtr st;  ///< null → idle tick (or exit)
    std::vector<Request> requests;
    int shape_classes = 1;
    bool exit = false;
  };

  std::future<Response> submit_impl(const std::string& tenant, TensorF image,
                                    std::optional<Deadline> deadline);
  void worker_loop(unsigned worker_idx);
  WorkItem next_batch();
  void run_batch(WorkItem& item);
  /// Resolve kExpired for every queued request past its deadline (holding
  /// the fleet mutex).
  void shed_expired_locked(Clock::time_point now);
  void maybe_flush();
  static void accumulate(TenantStats& into, const TenantState& st);

  FleetConfig cfg_;
  ModelRegistry registry_;
  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< workers: arrivals / closures
  std::condition_variable drain_cv_;  ///< remove_tenant: queue emptied
  std::map<std::string, StatePtr> states_;
  /// Stats of deregistered tenants, kept so fleet accounting stays exact
  /// across remove_tenant (the state object survives in-flight batches).
  std::vector<StatePtr> retired_;
  bool stopping_ = false;
  double global_vtime_ = 0.0;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> stopped_{false};
  std::atomic<std::int64_t> last_flush_us_{0};  ///< steady-clock μs
  std::mutex stop_mu_;
};

}  // namespace iwg::serve

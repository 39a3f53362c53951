// Watchdog: liveness self-monitoring for the serving worker threads.
//
// Every thread that must make forward progress (the fleet's dispatch
// workers) registers a named Heartbeat and beats it once per loop
// iteration. The beat is the entire hot-path cost: one steady-clock
// read plus one relaxed atomic store — bench/observability_overhead holds
// it (together with windowed-snapshot publication) under the same 1%
// discipline as the rest of the observability layer.
//
// check() scans the registered heartbeats from a cold thread (the admin
// server's /healthz handler, a test): a heartbeat older than the stall
// timeout marks the process unhealthy, flips /healthz to 503, and — on the
// fresh→stalled transition only — increments obs.watchdog.stalls and emits
// an obs.watchdog.stall span, so a flapping thread is countable rather than
// a counter storm. Heartbeats are shared_ptr-owned by the beating thread;
// the watchdog holds weak references, so a worker that exits cleanly (and
// drops its handle) simply disappears from the scan instead of reading as a
// stall forever.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace iwg::obs {

class Watchdog {
 public:
  /// A heartbeat is stalled when it has not beaten for this long. The
  /// default comfortably covers a fleet worker's idle park (50 ms) plus a
  /// long batch; tests shrink it to milliseconds.
  explicit Watchdog(
      std::chrono::microseconds stall_timeout = std::chrono::seconds(5));

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// One monitored thread's liveness signal.
  class Heartbeat {
   public:
    explicit Heartbeat(std::string name) : name_(std::move(name)) {}

    /// Hot path: relaxed store of the current steady-clock microsecond.
    void beat() {
      last_us_.store(now_us(), std::memory_order_relaxed);
    }

    const std::string& name() const { return name_; }
    std::int64_t last_beat_us() const {
      return last_us_.load(std::memory_order_relaxed);
    }

    static std::int64_t now_us();

   private:
    friend class Watchdog;
    const std::string name_;
    std::atomic<std::int64_t> last_us_{now_us()};
    std::atomic<bool> stalled_{false};  ///< transition edge detector
  };
  using HeartbeatPtr = std::shared_ptr<Heartbeat>;

  /// Register a named heartbeat (already fresh). The caller owns it; when
  /// the owning thread drops the handle, the watchdog stops scanning it.
  HeartbeatPtr watch(std::string name);

  struct Stall {
    std::string name;
    double age_s = 0.0;  ///< time since the last beat
  };
  struct Status {
    bool healthy = true;          ///< no live heartbeat is stalled
    std::size_t watched = 0;      ///< live heartbeats scanned
    std::vector<Stall> stalled;   ///< currently-stalled heartbeats
    std::int64_t stalls_total = 0;  ///< fresh→stalled transitions ever seen
  };

  /// Scan every live heartbeat. Fresh→stalled transitions increment
  /// obs.watchdog.stalls (once per transition) and emit a span; recovered
  /// heartbeats re-arm the edge detector. Expired (dropped) heartbeats are
  /// pruned. Thread-safe; called from the admin/health thread.
  Status check();

  /// check().healthy — what /healthz gates on.
  bool healthy() { return check().healthy; }

  std::chrono::microseconds stall_timeout() const { return stall_timeout_; }

 private:
  const std::chrono::microseconds stall_timeout_;
  std::mutex mu_;
  std::vector<std::weak_ptr<Heartbeat>> beats_;
  std::int64_t stalls_total_ = 0;
};

}  // namespace iwg::obs

// Serving-subsystem request/response vocabulary.
//
// A Request is one independent single-image inference: an H×W×C NHWC image,
// an optional absolute Deadline, and a promise the engine must resolve with
// exactly one Response whatever happens (served, rejected at admission,
// expired in queue, or shed at shutdown). "Every future resolves" is the
// subsystem's core invariant — the tests and the CI smoke both assert it.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <string>

#include "common/trace.hpp"
#include "tensor/tensor.hpp"

namespace iwg::serve {

using Clock = std::chrono::steady_clock;

/// Absolute time budget of one request. Default-constructed: no deadline.
class Deadline {
 public:
  Deadline() = default;

  /// Expires `budget` from now.
  static Deadline after(std::chrono::microseconds budget) {
    Deadline d;
    d.at_ = Clock::now() + budget;
    return d;
  }
  static Deadline never() { return Deadline{}; }

  bool has_deadline() const { return at_.has_value(); }
  bool expired(Clock::time_point now = Clock::now()) const {
    return at_.has_value() && now >= *at_;
  }
  Clock::time_point at() const { return at_.value(); }

 private:
  std::optional<Clock::time_point> at_;
};

/// Terminal state of one request.
enum class Status : std::uint8_t {
  kOk,        ///< served; `output` holds the model output for this image
  kRejected,  ///< admission refused it (see Response::reason)
  kExpired,   ///< deadline passed before dispatch; shed without running
  kShutdown,  ///< tenant or fleet stopped before it could run
};

inline const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kExpired: return "expired";
    case Status::kShutdown: return "shutdown";
  }
  return "?";
}

struct Response {
  Status status = Status::kOk;
  /// Model output sliced to this request (leading dim 1); empty unless kOk.
  TensorF output;
  std::string reason;           ///< human detail for non-kOk outcomes
  std::int64_t batch_size = 0;  ///< live requests in the serving micro-batch
  double queue_us = 0.0;        ///< enqueue → dispatch
  double latency_us = 0.0;      ///< enqueue → promise resolution

  bool ok() const { return status == Status::kOk; }
};

struct Request {
  std::uint64_t id = 0;
  TensorF input;  ///< H×W×C (rank 3)
  Deadline deadline;
  Clock::time_point enqueue_time;
  /// Flight-recorder identity, minted at submit. The request object is the
  /// explicit hand-off across threads: whichever thread touches the request
  /// next (expiry shed, worker dispatch/complete) restores this context via
  /// trace::ContextScope so its spans join the request's flow chain.
  trace::Context ctx;
  std::promise<Response> promise;
};

}  // namespace iwg::serve

// Shared vocabulary of the repo benchmark: run arguments, the result
// record, and the benchmark's own span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the span file and record go
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< observations behind the value
  /// Listed in BENCHMARK.json, so printed on the summary line; the rest
  /// appear in the full record only.
  bool gated = true;
};

/// One run: correctness verdict, operation counts, metrics, and free-form
/// facts (environment, hashes, tolerances) for the full record.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> facts;  ///< JSON values

  void add(std::string name, double value, std::string unit,
           std::int64_t samples, bool gated = true) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, gated});
  }
  void fact(std::string key, const std::string& json_value) {
    facts.emplace_back(std::move(key), json_value);
  }
  /// Records a correctness check; a failed one makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
};

std::string json_string(const std::string& s);
std::string json_number(double v);

/// Spans the benchmark records around its calls into the library: name,
/// start, end, parent span and request id. They are kept in memory and
/// written out when the run ends. Only the benchmark's own thread records,
/// and only while recording is switched on, so the untraced run pays one
/// branch per call.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 at top
  std::int64_t request = -1;  ///< operation / request id, -1 for probes
  double ms() const { return 1e-6 * static_cast<double>(end_ns - start_ns); }
};

class Spans {
 public:
  static Spans& get();

  bool recording() const { return recording_; }
  void set_recording(bool on) { recording_ = on; }

  std::int64_t open(std::string name, std::int64_t request);
  void close(std::int64_t id);

  const std::vector<SpanRecord>& records() const { return records_; }
  /// Writes every span as one JSON array; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool recording_ = false;
  std::vector<SpanRecord> records_;
  std::vector<std::int64_t> stack_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a no-op while recording is off.
class Span {
 public:
  explicit Span(std::string name, std::int64_t request = -1)
      : id_(Spans::get().recording()
                ? Spans::get().open(std::move(name), request)
                : -1) {}
  ~Span() {
    if (id_ >= 0) Spans::get().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t id_;
};

/// Durations (ms) of every recorded span with this name.
std::vector<double> span_ms(const std::string& name);

/// Seed streams: each kind of input draws from its own derived seed, so
/// the same --seed gives the same images, schedule and weights.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

void run_infer_resnet18(const Args& args, Result& r);
void run_serve_mixed(const Args& args, Result& r);
void run_train_vgg16(const Args& args, Result& r);

}  // namespace perfbench

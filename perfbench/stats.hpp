// Statistics and environment readings for the repo benchmark.
//
// Everything here is independent of the library so stats_test.cpp can pin
// the rules the benchmark reports by: a tail percentile is published only
// when at least kMinTail samples lie beyond it, and steal share and CPU
// time are deltas between two readings taken around the measured window.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported (p90 needs 100 samples, p99 needs 1000).
inline constexpr std::int64_t kMinTail = 10;

/// Linear-interpolated q-quantile (q in [0, 1]) of unsorted values.
/// Requires a nonempty input.
double quantile(std::vector<double> values, double q);

double median(const std::vector<double>& values);

/// Number of samples that lie beyond the q-quantile: floor(n · (1 − q)).
std::int64_t samples_beyond(std::int64_t n, double q);

/// The q-quantile when at least kMinTail samples lie beyond it, else empty.
std::optional<double> tail_quantile(const std::vector<double>& values,
                                    double q);

/// Aggregate CPU counters of the first line of /proc/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                irq = 0, softirq = 0, steal = 0;
  std::uint64_t total() const {
    return user + nice + system + idle + iowait + irq + softirq + steal;
  }
};

/// Parses the "cpu " line of a /proc/stat image; empty when malformed.
std::optional<CpuTicks> parse_proc_stat(std::string_view text);

/// Share of all CPU ticks between the two readings that the hypervisor
/// stole; 0 when no tick elapsed or the counters went backwards.
double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Reads /proc/stat now; zeros when unavailable (non-Linux).
CpuTicks read_cpu_ticks();

/// Process CPU time (user + system, all threads) in seconds.
double process_cpu_seconds();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// "model name" of the first processor in /proc/cpuinfo, or "unknown".
std::string cpu_model();

/// FNV-1a, for the input-schedule hash printed in every record.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench

#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

std::int64_t samples_beyond(std::int64_t n, double q) {
  // Rounded first so that 100 · (1 − 0.9) counts as 10, not 9.999….
  return static_cast<std::int64_t>(
      std::floor(std::round(static_cast<double>(n) * (1.0 - q) * 1e6) / 1e6));
}

std::optional<double> tail_quantile(const std::vector<double>& values,
                                    double q) {
  if (samples_beyond(static_cast<std::int64_t>(values.size()), q) < kMinTail) {
    return std::nullopt;
  }
  return quantile(values, q);
}

std::optional<CpuTicks> parse_proc_stat(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string label;
  CpuTicks t;
  if (!(in >> label) || label != "cpu") return std::nullopt;
  if (!(in >> t.user >> t.nice >> t.system >> t.idle >> t.iowait >> t.irq >>
        t.softirq)) {
    return std::nullopt;
  }
  // Kernels before 2.6.11 print no steal column.
  if (!(in >> t.steal)) t.steal = 0;
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  if (after.total() <= before.total() || after.steal < before.steal) {
    return 0.0;
  }
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total() - before.total());
}

CpuTicks read_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string line;
  if (!std::getline(f, line)) return {};
  return parse_proc_stat(line).value_or(CpuTicks{});
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench

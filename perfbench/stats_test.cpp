#include "stats.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PerfbenchStats, QuantileInterpolatesOnSortedSamples) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(ramp(11), 0.9), 10.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(PerfbenchStats, TailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10);
  EXPECT_EQ(samples_beyond(99, 0.9), 9);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10);
  EXPECT_EQ(samples_beyond(999, 0.99), 9);

  EXPECT_FALSE(tail_quantile(ramp(99), 0.9).has_value());
  ASSERT_TRUE(tail_quantile(ramp(100), 0.9).has_value());
  EXPECT_NEAR(*tail_quantile(ramp(100), 0.9), 90.1, 1e-9);
  EXPECT_FALSE(tail_quantile(ramp(999), 0.99).has_value());
  EXPECT_TRUE(tail_quantile(ramp(1000), 0.99).has_value());
  // The median is never a tail: 10 samples are enough for it.
  EXPECT_TRUE(tail_quantile(ramp(20), 0.5).has_value());
}

TEST(PerfbenchStats, ParsesProcStatIncludingSteal) {
  const auto t = parse_proc_stat(
      "cpu  2640944 0 144468 4731872 409 0 49134 476960 0 0\n"
      "cpu0 1 2 3 4 5 6 7 8 0 0\n");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->user, 2640944u);
  EXPECT_EQ(t->system, 144468u);
  EXPECT_EQ(t->idle, 4731872u);
  EXPECT_EQ(t->softirq, 49134u);
  EXPECT_EQ(t->steal, 476960u);
  EXPECT_EQ(t->total(), 2640944u + 144468u + 4731872u + 409u + 49134u +
                            476960u);
  EXPECT_FALSE(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8").has_value());
  EXPECT_FALSE(parse_proc_stat("cpu 1 2 x").has_value());
  const auto old = parse_proc_stat("cpu 1 2 3 4 5 6 7");
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->steal, 0u);
}

TEST(PerfbenchStats, StealShareIsTheStealDeltaOverTheTotalDelta) {
  CpuTicks a{.user = 100, .system = 10, .idle = 50, .steal = 40};
  CpuTicks b = a;
  b.user += 300;  // 300 user + 100 steal + 100 idle = 500 ticks elapsed
  b.steal += 100;
  b.idle += 100;
  EXPECT_DOUBLE_EQ(steal_share(a, b), 0.2);
  EXPECT_DOUBLE_EQ(steal_share(a, a), 0.0);
  EXPECT_DOUBLE_EQ(steal_share(b, a), 0.0);  // counters went backwards
}

TEST(PerfbenchStats, LiveReadingsMove) {
  const CpuTicks t0 = read_cpu_ticks();
  const double c0 = process_cpu_seconds();
  // Spin until the process has used 30 ms of CPU; the delta must then be
  // at least that and at most the wall time the spin took on all cores.
  const auto w0 = std::chrono::steady_clock::now();
  volatile double sink = 0.0;
  while (process_cpu_seconds() - c0 < 0.030) sink = sink + 1.0;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - w0).count();
  const double cpu = process_cpu_seconds() - c0;
  EXPECT_GE(cpu, 0.030);
  EXPECT_LE(cpu, wall * std::thread::hardware_concurrency() + 0.005);
  const CpuTicks t1 = read_cpu_ticks();
  EXPECT_GE(t1.total(), t0.total());
  const double share = steal_share(t0, t1);
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 1.0);
  EXPECT_GT(peak_rss_mb(), 0.0);
}

TEST(PerfbenchStats, Fnv1aMatchesKnownVectors) {
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace perfbench

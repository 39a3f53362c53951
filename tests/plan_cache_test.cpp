// PlanCache tests: struct keys (incl. the samples-fidelity regression),
// LRU eviction order, stats consistency under concurrent hammering from the
// global thread pool, and the plan-DB serialize → clear → load round trip
// that powers the "find once, deploy many" flow.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/plan_cache.hpp"

namespace iwg::core {
namespace {

ConvShape small_shape(int r, std::int64_t ow, std::int64_t channels) {
  ConvShape s;
  s.n = 1;
  s.fh = r;
  s.fw = r;
  s.ih = r;
  s.iw = ow + r - 1;
  s.ic = channels;
  s.oc = channels;
  s.validate();
  return s;
}

/// A synthetic choice whose contents encode `tag` (cheap cache payloads for
/// tests that exercise cache mechanics rather than tuning).
AlgoChoice fake_choice(int tag) {
  AlgoChoice c;
  c.use_winograd = false;
  c.est_gflops = 100.0 + tag;
  c.description = "fake " + std::to_string(tag);
  return c;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(PlanCache, SamplesFidelityIsPartOfTheKey) {
  // Regression: the old string-keyed cache ignored `samples`, so a
  // samples=1 answer was served to samples=16 callers.
  PlanCache cache(/*capacity=*/8, /*num_shards=*/1);
  const ConvShape s = small_shape(3, 18, 16);
  const auto dev = sim::DeviceProfile::rtx3060ti();
  cache.get_or_tune(s, dev, /*samples=*/1);
  cache.get_or_tune(s, dev, /*samples=*/16);
  const auto st = cache.stats();
  EXPECT_EQ(st.lookups, 2);
  EXPECT_EQ(st.hits, 0);
  EXPECT_EQ(st.misses, 2);
  EXPECT_EQ(cache.size(), 2);  // two distinct entries, not one
  // And each fidelity now hits its own entry.
  cache.get_or_tune(s, dev, /*samples=*/1);
  cache.get_or_tune(s, dev, /*samples=*/16);
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST(PlanCache, LruEvictionOrder) {
  PlanCache cache(/*capacity=*/2, /*num_shards=*/1);
  const PlanKey a{small_shape(3, 12, 8), "dev", 4};
  const PlanKey b{small_shape(3, 18, 8), "dev", 4};
  const PlanKey c{small_shape(3, 24, 8), "dev", 4};
  cache.insert(a, fake_choice(1));
  cache.insert(b, fake_choice(2));
  EXPECT_TRUE(cache.lookup(a).has_value());  // refresh a: LRU order is now b,a
  cache.insert(c, fake_choice(3));           // evicts b (the LRU tail)
  EXPECT_FALSE(cache.lookup(b).has_value());
  ASSERT_TRUE(cache.lookup(a).has_value());
  ASSERT_TRUE(cache.lookup(c).has_value());
  EXPECT_EQ(cache.lookup(a)->description, "fake 1");
  EXPECT_EQ(cache.lookup(c)->description, "fake 3");
  const auto st = cache.stats();
  EXPECT_EQ(st.evictions, 1);
  EXPECT_EQ(st.entries, 2);
  EXPECT_EQ(st.lookups, st.hits + st.misses);
}

TEST(PlanCache, InsertRefreshesExistingKeyWithoutEviction) {
  PlanCache cache(/*capacity=*/2, /*num_shards=*/1);
  const PlanKey a{small_shape(3, 12, 8), "dev", 4};
  cache.insert(a, fake_choice(1));
  cache.insert(a, fake_choice(2));
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.lookup(a)->description, "fake 2");
}

TEST(PlanCache, ConcurrentHammeringKeepsStatsExactlyConsistent) {
  // Hammer one cache from the global pool with overlapping shapes: tuning
  // happens outside the shard locks (so pool workers tuning concurrently
  // cannot deadlock the nested parallel_for in the profiler) and every
  // counter update is mutexed, so hits + misses == lookups must hold
  // exactly, and the entry count must never exceed capacity. Every miss
  // records its tuning time once into the plan_cache.tuning_s histogram,
  // whose count/sum/min must agree with the cache's own stats.
  trace::ResetGuard guard;
  PlanCache cache(/*capacity=*/6, /*num_shards=*/2);
  const auto dev = sim::DeviceProfile::rtx3060ti();
  std::vector<ConvShape> shapes;
  for (int i = 0; i < 8; ++i) {
    shapes.push_back(small_shape(2 + i % 4, 12 + 6 * (i / 4), 8));
  }
  const int kOps = 96;
  std::atomic<int> executed{0};
  ThreadPool::global().parallel_for(kOps, [&](std::int64_t i) {
    const ConvShape& s = shapes[static_cast<std::size_t>(i) % shapes.size()];
    const auto choice =
        cache.get_or_tune(s, dev, /*samples=*/1, TuningBudget{2});
    ASSERT_FALSE(choice.executable_plan(s).empty());
    executed.fetch_add(1);
  });
  EXPECT_EQ(executed.load(), kOps);
  const auto st = cache.stats();
  EXPECT_EQ(st.lookups, kOps);
  EXPECT_EQ(st.hits + st.misses, st.lookups);
  EXPECT_GE(st.misses, 8);  // every distinct key missed at least once
  EXPECT_LE(st.entries, 6);
  EXPECT_GT(st.tuning_time_s, 0.0);
  const auto tuning =
      trace::MetricsRegistry::global().histogram("plan_cache.tuning_s")
          .snapshot();
  EXPECT_EQ(tuning.count, st.misses);
  EXPECT_NEAR(tuning.sum, st.tuning_time_s, 1e-9 * st.tuning_time_s);
  EXPECT_GT(tuning.min, 0.0);
}

TEST(PlanCache, SerializeClearLoadRoundTripIsByteIdentical) {
  PlanCache cache(/*capacity=*/32, /*num_shards=*/4);
  const auto dev = sim::DeviceProfile::rtx3060ti();
  std::vector<ConvShape> shapes = {small_shape(3, 20, 16),
                                   small_shape(5, 18, 32),
                                   small_shape(7, 35, 64)};
  std::vector<AlgoChoice> tuned;
  for (const auto& s : shapes) {
    tuned.push_back(cache.get_or_tune(s, dev, /*samples=*/2));
  }

  const std::string path1 = testing::TempDir() + "plan_cache_rt1.plandb";
  const std::string path2 = testing::TempDir() + "plan_cache_rt2.plandb";
  EXPECT_EQ(cache.save(path1), 3);

  cache.clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.load(path1), 3);

  // Loaded plans are byte-identical: every field round-trips (verified both
  // through AlgoChoice equality and by re-serializing to identical bytes).
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const auto got = cache.lookup(PlanKey{shapes[i], dev.name, 2});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, tuned[i]) << shapes[i].to_string();
  }
  EXPECT_EQ(cache.save(path2), 3);
  EXPECT_EQ(read_file(path1), read_file(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(PlanCache, LoadedPlanDbServesSecondRunWithFullHitsAndZeroTuning) {
  // The layer_sweep "find once, deploy many" flow: run 1 tunes and saves a
  // plan DB; run 2 (a fresh cache — a fresh process in real deployments)
  // loads it and must report 100% cache hits and zero tuning time.
  const auto dev = sim::DeviceProfile::rtx3060ti();
  std::vector<ConvShape> layers;
  for (std::int64_t hw : {16, 8}) {
    for (std::int64_t ch : {32, 64}) {
      layers.push_back(ConvShape::from_ofms(2, hw, hw, ch, 3));
    }
  }
  layers.push_back(ConvShape::from_ofms(2, 8, 8, 64, 7));

  const std::string db = testing::TempDir() + "plan_cache_sweep.plandb";
  {
    PlanCache first_run(64, 4);
    for (const auto& s : layers) first_run.get_or_tune(s, dev, 2);
    EXPECT_EQ(first_run.save(db), static_cast<std::int64_t>(layers.size()));
    EXPECT_GT(first_run.stats().tuning_time_s, 0.0);
  }
  PlanCache second_run(64, 4);
  second_run.load(db);
  for (const auto& s : layers) second_run.get_or_tune(s, dev, 2);
  const auto st = second_run.stats();
  EXPECT_EQ(st.lookups, static_cast<std::int64_t>(layers.size()));
  EXPECT_EQ(st.hits, st.lookups);  // 100% hits
  EXPECT_EQ(st.misses, 0);
  EXPECT_EQ(st.tuning_time_s, 0.0);  // no tuning on the deploy path
  std::remove(db.c_str());
}

/// A classic-derived locale whose only change is a ',' decimal point — what
/// de_DE-style locales do to numeric formatting, without needing any system
/// locale installed.
class CommaDecimalPoint : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
};

class ScopedGlobalLocale {
 public:
  explicit ScopedGlobalLocale(const std::locale& loc)
      : prev_(std::locale::global(loc)) {}
  ~ScopedGlobalLocale() { std::locale::global(prev_); }

 private:
  std::locale prev_;
};

TEST(PlanCache, PlanDbRoundTripSurvivesCommaDecimalGlobalLocale) {
  // Regression: the plan-DB streams used the global locale, so under a
  // comma-decimal locale format_double wrote "123,45" and load() stopped
  // parsing doubles at the comma. All plan-DB streams now imbue the classic
  // locale, making save/load locale-independent.
  PlanCache cache(8, 1);
  const auto dev = sim::DeviceProfile::rtx3060ti();
  const ConvShape s = small_shape(3, 20, 16);
  const auto tuned = cache.get_or_tune(s, dev, /*samples=*/2);

  const std::string classic_path = testing::TempDir() + "plandb_locale_c.db";
  const std::string comma_path = testing::TempDir() + "plandb_locale_de.db";
  EXPECT_EQ(cache.save(classic_path), 1);
  {
    ScopedGlobalLocale comma(
        std::locale(std::locale::classic(), new CommaDecimalPoint));
    EXPECT_EQ(cache.save(comma_path), 1);
    EXPECT_EQ(read_file(classic_path), read_file(comma_path));

    PlanCache loaded(8, 1);
    EXPECT_EQ(loaded.load(classic_path), 1);
    const auto got = loaded.lookup(PlanKey{s, dev.name, 2});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, tuned);
  }
  std::remove(classic_path.c_str());
  std::remove(comma_path.c_str());
}

TEST(PlanCache, LoadOfTruncatedDbIsAllOrNothing) {
  // Regression: load() used to insert entry-by-entry, so a DB truncated
  // mid-file left the cache holding the prefix. It must now stage the whole
  // parse and leave the cache exactly as it was on failure.
  const auto dev = sim::DeviceProfile::rtx3060ti();
  const ConvShape s1 = small_shape(3, 20, 16);
  const ConvShape s2 = small_shape(5, 18, 32);
  const std::string full = testing::TempDir() + "plandb_full.db";
  const std::string trunc = testing::TempDir() + "plandb_trunc.db";
  {
    PlanCache writer(8, 1);
    writer.get_or_tune(s1, dev, /*samples=*/2);
    writer.get_or_tune(s2, dev, /*samples=*/2);
    EXPECT_EQ(writer.save(full), 2);
  }
  // Cut just after the second "entry" marker: the first entry is complete
  // and parseable, the second is missing.
  const std::string bytes = read_file(full);
  const std::size_t first = bytes.find("\nentry\n");
  ASSERT_NE(first, std::string::npos);
  const std::size_t second = bytes.find("\nentry\n", first + 1);
  ASSERT_NE(second, std::string::npos);
  {
    std::ofstream out(trunc, std::ios::binary);
    out << bytes.substr(0, second + 7);
  }

  PlanCache cache(8, 1);
  const PlanKey sentinel{small_shape(2, 12, 8), "sentinel", 4};
  cache.insert(sentinel, fake_choice(7));
  EXPECT_THROW(cache.load(trunc), std::exception);
  EXPECT_EQ(cache.size(), 1);  // the fully-parsed first entry did NOT land
  EXPECT_FALSE(cache.lookup(PlanKey{s1, dev.name, 2}).has_value());
  EXPECT_FALSE(cache.lookup(PlanKey{s2, dev.name, 2}).has_value());
  EXPECT_TRUE(cache.lookup(sentinel).has_value());
  std::remove(full.c_str());
  std::remove(trunc.c_str());
}

TEST(PlanCache, LoadOfGarbageDbLeavesCacheUntouched) {
  const std::string path = testing::TempDir() + "plandb_garbage.db";
  {
    std::ofstream out(path);
    out << "IWGPLANDB v1\nentries 1\nentry\ndevice dev\nshape not numbers\n";
  }
  PlanCache cache(8, 1);
  const PlanKey sentinel{small_shape(2, 12, 8), "sentinel", 4};
  cache.insert(sentinel, fake_choice(9));
  EXPECT_THROW(cache.load(path), std::exception);
  EXPECT_EQ(cache.size(), 1);
  EXPECT_TRUE(cache.lookup(sentinel).has_value());
  std::remove(path.c_str());
}

TEST(PlanCache, LoadRejectsBadMagicAndTruncation) {
  const std::string path = testing::TempDir() + "plan_cache_bad.plandb";
  {
    std::ofstream out(path);
    out << "NOTAPLANDB v9\n";
  }
  PlanCache cache(8, 1);
  EXPECT_THROW(cache.load(path), std::exception);
  {
    std::ofstream out(path);
    out << "IWGPLANDB v1\nentries 2\nentry\n";  // truncated
  }
  EXPECT_THROW(cache.load(path), std::exception);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace iwg::core

#include "core/plan_cache.hpp"

#include <algorithm>
#include <iomanip>
#include <fstream>
#include <locale>
#include <sstream>
#include <utility>

#include "common/timer.hpp"
#include "common/trace.hpp"

namespace iwg::core {

namespace {

constexpr const char* kMagic = "IWGPLANDB";
constexpr int kVersion = 1;

void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Canonical sort key: deterministic save order independent of LRU state.
std::string canonical_key(const PlanKey& k) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << k.device << '|' << k.samples << '|' << k.shape.n << '|' << k.shape.ih
     << '|' << k.shape.iw << '|' << k.shape.ic << '|' << k.shape.oc << '|'
     << k.shape.fh << '|' << k.shape.fw << '|' << k.shape.ph << '|'
     << k.shape.pw;
  return os.str();
}

std::string format_double(double v) {
  // snprintf("%.17g") honours the C global locale (setlocale), so a
  // comma-decimal process would emit "1,5" and break both the parser and
  // the byte-identical round trip. A classic-imbued stream always emits
  // "1.5" with the same 17-significant-digit round-trip format.
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::setprecision(17) << v;
  return os.str();
}

/// Field parser pinned to the classic locale: "1.5" must parse as 1.5 no
/// matter what std::locale::global says (the plan DB is a portable format).
std::istringstream value_stream(std::string payload) {
  std::istringstream is(std::move(payload));
  is.imbue(std::locale::classic());
  return is;
}

Variant variant_from_name(const std::string& name) {
  if (name == "base") return Variant::kBase;
  if (name == "ruse") return Variant::kRuse;
  IWG_CHECK_MSG(name == "c64", "plan DB: unknown kernel variant " + name);
  return Variant::kC64;
}

std::string expect_line(std::istream& in, const char* what) {
  std::string line;
  IWG_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                std::string("plan DB truncated, expected ") + what);
  return line;
}

/// Consume `prefix` + ' ' from the front of `line`, returning the payload.
std::string strip_prefix(const std::string& line, const std::string& prefix) {
  IWG_CHECK_MSG(line.size() > prefix.size() + 1 &&
                    line.compare(0, prefix.size(), prefix) == 0 &&
                    line[prefix.size()] == ' ',
                "plan DB: malformed line '" + line + "' (expected '" + prefix +
                    " ...')");
  return line.substr(prefix.size() + 1);
}

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  std::size_t seed = std::hash<std::string>{}(k.device);
  const std::hash<std::int64_t> h;
  hash_combine(seed, h(k.samples));
  hash_combine(seed, h(k.shape.n));
  hash_combine(seed, h(k.shape.ih));
  hash_combine(seed, h(k.shape.iw));
  hash_combine(seed, h(k.shape.ic));
  hash_combine(seed, h(k.shape.oc));
  hash_combine(seed, h(k.shape.fh));
  hash_combine(seed, h(k.shape.fw));
  hash_combine(seed, h(k.shape.ph));
  hash_combine(seed, h(k.shape.pw));
  return seed;
}

PlanCache::PlanCache(std::int64_t capacity, int num_shards)
    : capacity_(capacity),
      shard_capacity_((capacity + num_shards - 1) / num_shards),
      shards_(static_cast<std::size_t>(num_shards)) {
  IWG_CHECK(capacity > 0 && num_shards > 0);
  IWG_CHECK(shard_capacity_ > 0);
}

PlanCache::Shard& PlanCache::shard_for(const PlanKey& key) {
  return shards_[PlanKeyHash{}(key) % shards_.size()];
}

std::optional<AlgoChoice> PlanCache::lookup(const PlanKey& key) {
  // Process-wide observability counters (aggregated across every PlanCache
  // instance; per-instance exact numbers stay in CacheStats). Cached
  // references: registry lookup happens once per process.
  static trace::Counter& m_lookups =
      trace::MetricsRegistry::global().counter("plan_cache.lookups");
  static trace::Counter& m_hits =
      trace::MetricsRegistry::global().counter("plan_cache.hits");
  static trace::Counter& m_misses =
      trace::MetricsRegistry::global().counter("plan_cache.misses");
  m_lookups.add();
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mu);
  ++shard.lookups;
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    m_misses.add();
    return std::nullopt;
  }
  ++shard.hits;
  m_hits.add();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->choice;
}

void PlanCache::insert_locked(Shard& shard, const PlanKey& key,
                              const AlgoChoice& choice) {
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->choice = choice;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, choice});
  shard.index.emplace(key, shard.lru.begin());
  while (static_cast<std::int64_t>(shard.lru.size()) > shard_capacity_) {
    static trace::Counter& m_evictions =
        trace::MetricsRegistry::global().counter("plan_cache.evictions");
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
    m_evictions.add();
  }
}

void PlanCache::insert(const PlanKey& key, const AlgoChoice& choice) {
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mu);
  insert_locked(shard, key, choice);
}

AlgoChoice PlanCache::get_or_tune(const ConvShape& s,
                                  const sim::DeviceProfile& dev, int samples,
                                  const TuningBudget& budget) {
  const PlanKey key{s, dev.name, samples};
  if (auto hit = lookup(key)) return *hit;
  // Tune outside the shard lock: select_algorithm fans work out through the
  // global thread pool, and holding a mutex across that invites deadlock
  // when the cache itself is hammered from pool workers.
  IWG_TRACE_SPAN(span, "plan_cache.tune", "plan_cache");
  if (span.active()) {
    span.arg("shape", s.to_string())
        .arg("device", dev.name)
        .arg("samples", samples);
  }
  Timer timer;
  const AlgoChoice choice = select_algorithm(s, dev, samples, budget);
  const double tuned_s = timer.seconds();
  trace::MetricsRegistry::global()
      .histogram("plan_cache.tuning_s")
      .record(tuned_s);
  if (span.active()) {
    span.arg("winner", choice.description)
        .arg("est_gflops", choice.est_gflops)
        .arg("candidates_profiled", choice.candidates_profiled);
  }
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mu);
  shard.tuning_time_s += tuned_s;
  insert_locked(shard, key, choice);
  return choice;
}

void PlanCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

CacheStats PlanCache::stats() const {
  CacheStats s;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    s.lookups += shard.lookups;
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.evictions += shard.evictions;
    s.entries += static_cast<std::int64_t>(shard.lru.size());
    s.tuning_time_s += shard.tuning_time_s;
  }
  return s;
}

std::int64_t PlanCache::size() const {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    total += static_cast<std::int64_t>(shard.lru.size());
  }
  return total;
}

std::int64_t PlanCache::save(const std::string& path) const {
  std::vector<Entry> entries;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (const Entry& e : shard.lru) entries.push_back(e);
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return canonical_key(a.key) < canonical_key(b.key);
  });

  std::ofstream out(path);
  out.imbue(std::locale::classic());  // portable format: never the app locale
  IWG_CHECK_MSG(out.good(), "cannot open plan DB for writing: " + path);
  out << kMagic << " v" << kVersion << "\n";
  out << "entries " << entries.size() << "\n";
  for (const Entry& e : entries) {
    const ConvShape& s = e.key.shape;
    const AlgoChoice& c = e.choice;
    out << "entry\n";
    out << "device " << e.key.device << "\n";
    out << "shape " << s.n << ' ' << s.ih << ' ' << s.iw << ' ' << s.ic << ' '
        << s.oc << ' ' << s.fh << ' ' << s.fw << ' ' << s.ph << ' ' << s.pw
        << "\n";
    out << "samples " << e.key.samples << "\n";
    out << "result " << (c.use_winograd ? "wino" : "gemm") << ' '
        << format_double(c.est_gflops) << ' ' << format_double(c.gemm_gflops)
        << ' ' << c.candidates_enumerated << ' ' << c.candidates_profiled
        << ' ' << (c.heuristic ? 1 : 0) << "\n";
    out << "desc " << c.description << "\n";
    out << "segments " << c.plan.size() << "\n";
    for (const Segment& seg : c.plan) {
      if (seg.is_gemm) {
        out << "seg gemm " << seg.ow_start << ' ' << seg.ow_len << "\n";
      } else {
        out << "seg gamma " << seg.cfg.alpha << ' ' << seg.cfg.n << ' '
            << seg.cfg.r << ' ' << variant_name(seg.cfg.variant) << ' '
            << seg.ow_start << ' ' << seg.ow_len << "\n";
      }
    }
    out << "end\n";
  }
  IWG_CHECK_MSG(out.good(), "plan DB write failed: " + path);
  return static_cast<std::int64_t>(entries.size());
}

std::int64_t PlanCache::load(const std::string& path) {
  std::ifstream in(path);
  in.imbue(std::locale::classic());
  IWG_CHECK_MSG(in.good(), "cannot open plan DB: " + path);

  const std::string header = expect_line(in, "header");
  IWG_CHECK_MSG(header == std::string(kMagic) + " v" + std::to_string(kVersion),
                "plan DB: bad magic or unsupported version: " + header);
  std::int64_t count = -1;
  {
    auto is = value_stream(strip_prefix(expect_line(in, "entries"), "entries"));
    IWG_CHECK_MSG(static_cast<bool>(is >> count) && count >= 0,
                  "plan DB: bad entry count");
  }

  // All-or-nothing: parse the entire file into staging first, so a
  // truncated or corrupt DB (which throws mid-parse) cannot leave the cache
  // partially populated.
  std::vector<Entry> staged;
  staged.reserve(static_cast<std::size_t>(count));
  for (std::int64_t e = 0; e < count; ++e) {
    IWG_CHECK_MSG(expect_line(in, "entry") == "entry",
                  "plan DB: expected 'entry'");
    PlanKey key;
    key.device = strip_prefix(expect_line(in, "device"), "device");
    {
      auto is = value_stream(strip_prefix(expect_line(in, "shape"), "shape"));
      ConvShape& s = key.shape;
      IWG_CHECK_MSG(static_cast<bool>(is >> s.n >> s.ih >> s.iw >> s.ic >>
                                      s.oc >> s.fh >> s.fw >> s.ph >> s.pw),
                    "plan DB: malformed shape");
      s.validate();
    }
    {
      auto is =
          value_stream(strip_prefix(expect_line(in, "samples"), "samples"));
      IWG_CHECK_MSG(static_cast<bool>(is >> key.samples) && key.samples > 0,
                    "plan DB: malformed samples");
    }
    AlgoChoice choice;
    {
      auto is = value_stream(strip_prefix(expect_line(in, "result"), "result"));
      std::string algo;
      int heuristic = 0;
      IWG_CHECK_MSG(
          static_cast<bool>(is >> algo >> choice.est_gflops >>
                            choice.gemm_gflops >> choice.candidates_enumerated >>
                            choice.candidates_profiled >> heuristic),
          "plan DB: malformed result");
      IWG_CHECK_MSG(algo == "wino" || algo == "gemm",
                    "plan DB: unknown algorithm " + algo);
      choice.use_winograd = algo == "wino";
      choice.heuristic = heuristic != 0;
    }
    choice.description = strip_prefix(expect_line(in, "desc"), "desc");
    std::int64_t nsegs = -1;
    {
      auto is =
          value_stream(strip_prefix(expect_line(in, "segments"), "segments"));
      IWG_CHECK_MSG(static_cast<bool>(is >> nsegs) && nsegs >= 0,
                    "plan DB: malformed segment count");
    }
    std::int64_t covered = 0;
    for (std::int64_t i = 0; i < nsegs; ++i) {
      auto is = value_stream(strip_prefix(expect_line(in, "seg"), "seg"));
      std::string kind;
      IWG_CHECK_MSG(static_cast<bool>(is >> kind), "plan DB: malformed seg");
      Segment seg;
      if (kind == "gemm") {
        seg.is_gemm = true;
        IWG_CHECK_MSG(static_cast<bool>(is >> seg.ow_start >> seg.ow_len),
                      "plan DB: malformed gemm seg");
      } else {
        IWG_CHECK_MSG(kind == "gamma", "plan DB: unknown seg kind " + kind);
        int alpha = 0, n = 0, r = 0;
        std::string variant;
        IWG_CHECK_MSG(static_cast<bool>(is >> alpha >> n >> r >> variant >>
                                        seg.ow_start >> seg.ow_len),
                      "plan DB: malformed gamma seg");
        seg.cfg = GammaConfig::make(alpha, n, r, variant_from_name(variant));
      }
      IWG_CHECK_MSG(seg.ow_start == covered && seg.ow_len > 0,
                    "plan DB: plan has gaps or overlaps");
      covered += seg.ow_len;
      choice.plan.push_back(seg);
    }
    IWG_CHECK_MSG(nsegs == 0 || covered == key.shape.ow(),
                  "plan DB: plan does not cover OW");
    IWG_CHECK_MSG(expect_line(in, "end") == "end", "plan DB: expected 'end'");
    staged.push_back(Entry{std::move(key), std::move(choice)});
  }
  for (Entry& e : staged) insert(e.key, e.choice);
  trace::MetricsRegistry::global()
      .counter("plan_cache.db_entries_loaded")
      .add(count);
  return count;
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

}  // namespace iwg::core

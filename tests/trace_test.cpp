// Observability tests: the tracer's ring/drop semantics, Chrome-JSON export
// (validated by parsing it back with a mini JSON parser), span nesting and
// thread interleaving, Suppress/ConvOptions gating, and the metrics
// registry's race-freedom under the global thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/conv_api.hpp"

namespace iwg::trace {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — enough to validate the exported
// trace is well-formed and to read back names/args.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) {
      static const Json null;
      return null;
    }
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    pos_ = text_.size();  // stop consuming
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  Json value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return Json{};
      default:
        return number();
    }
  }

  Json object() {
    Json v;
    v.type = Json::Type::kObject;
    if (!consume('{')) fail("expected {");
    if (consume('}')) return v;
    do {
      Json key = string_value();
      if (!consume(':')) fail("expected :");
      v.obj[key.str] = value();
    } while (consume(','));
    if (!consume('}')) fail("expected }");
    return v;
  }

  Json array() {
    Json v;
    v.type = Json::Type::kArray;
    if (!consume('[')) fail("expected [");
    if (consume(']')) return v;
    do {
      v.arr.push_back(value());
    } while (consume(','));
    if (!consume(']')) fail("expected ]");
    return v;
  }

  Json string_value() {
    Json v;
    v.type = Json::Type::kString;
    if (!consume('"')) fail("expected string");
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u':
            pos_ += 4;  // tests never read escaped control chars back
            c = '?';
            break;
          default: c = esc;
        }
      }
      v.str += c;
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
    } else {
      ++pos_;  // closing quote
    }
    return v;
  }

  Json boolean() {
    Json v;
    v.type = Json::Type::kBool;
    if (peek() == 't') {
      literal("true");
      v.b = true;
    } else {
      literal("false");
    }
    return v;
  }

  Json number() {
    Json v;
    v.type = Json::Type::kNumber;
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    v.num = std::strtod(start, &end);
    if (end == start) {
      fail("expected number");
    } else {
      pos_ += static_cast<std::size_t>(end - start);
    }
    return v;
  }

  void literal(const char* lit) {
    skip_ws();
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        fail(std::string("expected ") + lit);
        return;
      }
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

Json parse_trace(const std::string& json) {
  JsonParser p(json);
  Json v = p.parse();
  EXPECT_TRUE(p.ok()) << p.error();
  EXPECT_EQ(v.type, Json::Type::kObject);
  EXPECT_EQ(v.at("traceEvents").type, Json::Type::kArray);
  return v;
}

/// Resets the global tracer around each test so tests stay independent.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  ASSERT_FALSE(Tracer::global().enabled());
  {
    IWG_TRACE_SCOPE("should_not_appear", "test");
    IWG_TRACE_SPAN(span, "nor_this", "test");
    span.arg("k", 1).arg("s", "v");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(Tracer::global().recorded(), 0);
  EXPECT_TRUE(Tracer::global().events().empty());
}

TEST_F(TraceTest, NestedSpansExportWellFormedChromeJsonWithArgs) {
  Tracer& t = Tracer::global();
  t.enable();
  {
    IWG_TRACE_SPAN(outer, "outer", "test");
    outer.arg("alpha", 8).arg("variant", "ruse").arg("frac", 0.25);
    {
      IWG_TRACE_SCOPE("inner", "test");
    }
  }
  t.disable();
  EXPECT_EQ(t.recorded(), 2);

  const Json doc = parse_trace(t.chrome_json(/*include_metrics=*/false));
  const Json* outer = nullptr;
  const Json* inner = nullptr;
  for (const Json& e : doc.at("traceEvents").arr) {
    if (e.at("name").str == "outer") outer = &e;
    if (e.at("name").str == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->at("ph").str, "X");
  EXPECT_EQ(outer->at("cat").str, "test");
  EXPECT_EQ(outer->at("args").at("alpha").num, 8.0);
  EXPECT_EQ(outer->at("args").at("variant").str, "ruse");
  EXPECT_DOUBLE_EQ(outer->at("args").at("frac").num, 0.25);
  // Nesting: the inner span lies inside the outer span's [ts, ts+dur), on
  // the same thread — which is how trace viewers reconstruct the stack.
  EXPECT_EQ(outer->at("tid").num, inner->at("tid").num);
  EXPECT_LE(outer->at("ts").num, inner->at("ts").num);
  EXPECT_GE(outer->at("ts").num + outer->at("dur").num,
            inner->at("ts").num + inner->at("dur").num);
}

TEST_F(TraceTest, ThreadInterleavingProducesParseableTrace) {
  Tracer& t = Tracer::global();
  t.enable();
  const int kSpans = 64;
  ThreadPool::global().parallel_for(kSpans, [](std::int64_t i) {
    IWG_TRACE_SPAN(span, "worker_span", "test");
    span.arg("job", i);
  });
  t.disable();
  EXPECT_EQ(t.recorded(), kSpans);

  const Json doc = parse_trace(t.chrome_json(/*include_metrics=*/false));
  int workers = 0;
  std::vector<bool> seen(kSpans, false);
  for (const Json& e : doc.at("traceEvents").arr) {
    if (e.at("name").str != "worker_span") continue;
    ++workers;
    const auto job = static_cast<std::size_t>(e.at("args").at("job").num);
    ASSERT_LT(job, seen.size());
    EXPECT_FALSE(seen[job]) << "job " << job << " recorded twice";
    seen[job] = true;
  }
  EXPECT_EQ(workers, kSpans);  // no span lost or torn under interleaving
}

TEST_F(TraceTest, RingKeepsMostRecentAndCountsDropped) {
  Tracer& t = Tracer::global();
  t.enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    IWG_TRACE_SPAN(span, "ev" + std::to_string(i), "test");
  }
  t.disable();
  EXPECT_EQ(t.recorded(), 10);
  EXPECT_EQ(t.dropped(), 6);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[static_cast<std::size_t>(i)].name,
              "ev" + std::to_string(6 + i));  // oldest dropped, order kept
  }
}

TEST_F(TraceTest, SuppressMutesRecordingOnThisThread) {
  Tracer& t = Tracer::global();
  t.enable();
  {
    Suppress mute;
    IWG_TRACE_SCOPE("muted", "test");
    EXPECT_FALSE(t.active());
    {
      Suppress nested;  // nesting must not unmute on destruction
    }
    EXPECT_FALSE(t.active());
  }
  EXPECT_TRUE(t.active());
  { IWG_TRACE_SCOPE("recorded", "test"); }
  t.disable();
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "recorded");
}

TEST_F(TraceTest, ConvOptionsTraceFalseSuppressesConvSpans) {
  const ConvShape s = [] {
    ConvShape sh;
    sh.n = 1;
    sh.ih = 4;
    sh.iw = 9;
    sh.ic = 4;
    sh.oc = 4;
    sh.fh = 3;
    sh.fw = 3;
    sh.ph = 1;
    sh.pw = 1;
    sh.validate();
    return sh;
  }();
  TensorF x({s.n, s.ih, s.iw, s.ic});
  TensorF w({s.oc, s.fh, s.fw, s.ic});
  x.fill(0.5f);
  w.fill(0.25f);

  Tracer& t = Tracer::global();
  t.enable();
  core::ConvOptions muted;
  muted.trace = false;
  core::conv2d(x, w, s, muted);
  EXPECT_EQ(t.recorded(), 0);
  core::conv2d(x, w, s, core::ConvOptions{});
  EXPECT_GT(t.recorded(), 0);
  t.disable();
}

TEST_F(TraceTest, ChromeJsonCarriesMetricsCounters) {
  MetricsRegistry::global().counter("test.export_counter").add(41);
  Tracer& t = Tracer::global();
  t.enable();
  { IWG_TRACE_SCOPE("with_metrics", "test"); }
  t.disable();

  const Json doc = parse_trace(t.chrome_json(/*include_metrics=*/true));
  bool found = false;
  for (const Json& e : doc.at("traceEvents").arr) {
    if (e.at("ph").str == "C" && e.at("name").str == "test.export_counter") {
      found = true;
      EXPECT_GE(e.at("args").at("value").num, 41.0);
    }
  }
  EXPECT_TRUE(found);

  const Json bare = parse_trace(t.chrome_json(/*include_metrics=*/false));
  for (const Json& e : bare.at("traceEvents").arr) {
    EXPECT_NE(e.at("ph").str, "C");
  }
}

TEST(Metrics, CountersAreRaceFreeUnderParallelFor) {
  Counter& cached = MetricsRegistry::global().counter("test.race_cached");
  const std::int64_t before = cached.value();
  const int kAdds = 10000;
  ThreadPool::global().parallel_for(kAdds, [&](std::int64_t) {
    cached.add();
    // The registry-lookup path must be just as safe as a cached reference.
    MetricsRegistry::global().counter("test.race_lookup").add();
  });
  EXPECT_EQ(cached.value() - before, kAdds);
  EXPECT_EQ(MetricsRegistry::global().counter("test.race_lookup").value() %
                kAdds,
            0);
}

TEST(Metrics, ResetZeroesValuesButKeepsReferencesValid) {
  Counter& c = MetricsRegistry::global().counter("test.reset_ref");
  c.add(5);
  MetricsRegistry::global().reset();
  EXPECT_EQ(c.value(), 0);
  c.add(2);  // the cached reference still points at the live counter
  EXPECT_EQ(MetricsRegistry::global().counter("test.reset_ref").value(), 2);
}

TEST(Metrics, TextReportListsEveryMetric) {
  ResetGuard guard;  // "count=1" must come from this case's histogram
  MetricsRegistry::global().counter("test.report_counter").add(3);
  MetricsRegistry::global().histogram("test.report_hist").record(1.5);
  const std::string report = MetricsRegistry::global().text_report();
  EXPECT_NE(report.find("test.report_counter"), std::string::npos);
  EXPECT_NE(report.find("test.report_hist"), std::string::npos);
  EXPECT_NE(report.find("count=1"), std::string::npos);
}

TEST(Metrics, FlushReportWritesMetricsFileOnDemand) {
  const std::string path =
      testing::TempDir() + "iwg_flush_report_test_metrics.txt";
  std::remove(path.c_str());
  MetricsRegistry::global().counter("test.flush_counter").add(9);
  set_report_paths(/*trace_path=*/"", /*metrics_path=*/path);
  ASSERT_TRUE(flush_report());

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "flush_report did not create " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string report = ss.str();
  EXPECT_NE(report.find("test.flush_counter"), std::string::npos);

  // A second flush atomically replaces the first (no stale temp left over).
  MetricsRegistry::global().counter("test.flush_counter_second").add(1);
  ASSERT_TRUE(flush_report());
  std::ifstream in2(path);
  std::stringstream ss2;
  ss2 << in2.rdbuf();
  EXPECT_NE(ss2.str().find("test.flush_counter_second"), std::string::npos);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());

  set_report_paths("", "");  // unconfigure so later tests aren't affected
  EXPECT_FALSE(flush_report());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Request-scoped context and flow events (the flight-recorder layer).

TEST_F(TraceTest, ContextScopeInheritsIntoSpansAndRestores) {
  EXPECT_FALSE(current_context().valid());
  Context ctx;
  ctx.trace_id = new_trace_id();
  ctx.request_id = 42;

  Tracer& t = Tracer::global();
  t.enable();
  {
    ContextScope scope(ctx);
    EXPECT_EQ(current_context().trace_id, ctx.trace_id);
    { IWG_TRACE_SCOPE("with_ctx", "test"); }
    {
      Context inner;
      inner.trace_id = new_trace_id();
      inner.request_id = 7;
      ContextScope nested(inner);
      EXPECT_EQ(current_context().request_id, 7u);
    }
    EXPECT_EQ(current_context().request_id, 42u);  // nested scope restored
  }
  EXPECT_FALSE(current_context().valid());  // outer scope restored
  { IWG_TRACE_SCOPE("no_ctx", "test"); }
  t.disable();

  const Json doc = parse_trace(t.chrome_json(/*include_metrics=*/false));
  const Json* with_ctx = nullptr;
  const Json* no_ctx = nullptr;
  for (const Json& e : doc.at("traceEvents").arr) {
    if (e.at("name").str == "with_ctx") with_ctx = &e;
    if (e.at("name").str == "no_ctx") no_ctx = &e;
  }
  ASSERT_NE(with_ctx, nullptr);
  ASSERT_NE(no_ctx, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(with_ctx->at("args").at("trace_id").num),
            ctx.trace_id);
  EXPECT_EQ(with_ctx->at("args").at("request_id").num, 42.0);
  EXPECT_FALSE(no_ctx->at("args").has("trace_id"));
}

TEST_F(TraceTest, FlowEventsChainRequestSpansAcrossThreads) {
  Tracer& t = Tracer::global();
  t.enable();
  Context req;
  req.trace_id = new_trace_id();
  req.request_id = 1;
  {
    ContextScope scope(req);  // "client" side of the hand-off
    IWG_TRACE_SCOPE("enqueue", "test");
  }
  std::thread worker([&] {  // "worker" side: context re-installed explicitly
    ContextScope scope(req);
    { IWG_TRACE_SCOPE("dispatch", "test"); }
    { IWG_TRACE_SCOPE("complete", "test"); }
  });
  worker.join();
  Context lone;  // a one-span chain must NOT emit flow events
  lone.trace_id = new_trace_id();
  lone.request_id = 2;
  {
    ContextScope scope(lone);
    IWG_TRACE_SCOPE("lone_span", "test");
  }
  t.disable();

  const Json doc = parse_trace(t.chrome_json(/*include_metrics=*/false));
  std::vector<const Json*> flows;
  for (const Json& e : doc.at("traceEvents").arr) {
    if (e.at("cat").str == "flow") flows.push_back(&e);
  }
  ASSERT_EQ(flows.size(), 3u);  // enqueue/dispatch/complete, nothing for lone
  EXPECT_EQ(flows[0]->at("ph").str, "s");
  EXPECT_EQ(flows[1]->at("ph").str, "t");
  EXPECT_EQ(flows[2]->at("ph").str, "f");
  EXPECT_EQ(flows[2]->at("bp").str, "e");  // bind to enclosing slice
  for (const Json* f : flows) {
    EXPECT_EQ(static_cast<std::uint64_t>(f->at("id").num), req.trace_id);
  }
  // The chain genuinely crosses threads: enqueue on this thread, the rest on
  // the worker. That is the hand-off the arrows render in Perfetto.
  EXPECT_NE(flows[0]->at("tid").num, flows[1]->at("tid").num);
  EXPECT_EQ(flows[1]->at("tid").num, flows[2]->at("tid").num);

  // Each flow event's ts lies inside its span so viewers bind it to the
  // right slice (Chrome binds flows positionally, not by id alone).
  const char* names[] = {"enqueue", "dispatch", "complete"};
  for (int i = 0; i < 3; ++i) {
    const Json* span = nullptr;
    for (const Json& e : doc.at("traceEvents").arr) {
      if (e.at("name").str == names[i]) span = &e;
    }
    ASSERT_NE(span, nullptr);
    EXPECT_GE(flows[static_cast<std::size_t>(i)]->at("ts").num,
              span->at("ts").num);
    EXPECT_LE(flows[static_cast<std::size_t>(i)]->at("ts").num,
              span->at("ts").num + span->at("dur").num);
  }
}

TEST_F(TraceTest, ControlCharsInNamesAndArgsExportValidJson) {
  Tracer& t = Tracer::global();
  t.enable();
  {
    IWG_TRACE_SPAN(span, std::string("multi\nline\tname"), "test");
    span.arg("note", std::string("ctl\x01" "end"));
  }
  t.disable();

  const std::string json = t.chrome_json(/*include_metrics=*/false);
  // Raw control characters would be invalid JSON; they must leave as
  // escapes (\n, \t, \u0001).
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("multi\\nline\\tname"), std::string::npos);

  const Json doc = parse_trace(json);
  const Json* ev = nullptr;
  for (const Json& e : doc.at("traceEvents").arr) {
    if (e.at("name").str == "multi\nline\tname") ev = &e;
  }
  ASSERT_NE(ev, nullptr);  // \n and \t round-trip through the parser
  // The mini parser maps \uXXXX escapes to '?' — good enough to prove the
  // arg survived as a parseable string.
  EXPECT_EQ(ev->at("args").at("note").str, "ctl?end");
}

TEST_F(TraceTest, RingWraparoundUnderParallelForKeepsAccounting) {
  Tracer& t = Tracer::global();
  constexpr std::int64_t kCap = 32;
  constexpr int kSpans = 500;
  t.enable(/*capacity=*/kCap);
  ThreadPool::global().parallel_for(kSpans, [](std::int64_t i) {
    IWG_TRACE_SPAN(span, "wrap", "test");
    span.arg("job", i);
  });
  t.disable();

  EXPECT_EQ(t.recorded(), kSpans);
  EXPECT_EQ(t.dropped(), kSpans - kCap);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), static_cast<std::size_t>(kCap));
  // Residents are distinct jobs (no event duplicated or torn by the wrap).
  std::vector<bool> seen(kSpans, false);
  for (const Event& e : evs) {
    EXPECT_EQ(e.name, "wrap");
    ASSERT_EQ(e.args.size(), 1u);
    const auto job = static_cast<std::size_t>(e.args[0].inum);
    ASSERT_LT(job, seen.size());
    EXPECT_FALSE(seen[job]);
    seen[job] = true;
  }
  // And the post-wrap ring still exports parseable JSON.
  parse_trace(t.chrome_json(/*include_metrics=*/false));
}

// ---------------------------------------------------------------------------
// Histogram (exact, lock-free, mergeable) and Prometheus exposition.

TEST(Metrics, HistogramCountsAreExactAndQuantilesInterpolate) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000);
  EXPECT_DOUBLE_EQ(s.sum, 500500.0);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  std::int64_t bucket_total = 0;
  for (const std::int64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);  // every value landed in some bucket
  // Log2 buckets are coarse, but interpolation must keep quantiles ordered
  // and inside the observed range.
  EXPECT_GE(s.quantile(0.5), 256.0);
  EXPECT_LE(s.quantile(0.5), 1000.0);
  EXPECT_GE(s.quantile(0.99), s.quantile(0.5));
  EXPECT_LE(s.quantile(1.0), 1000.0);
  EXPECT_GE(s.quantile(0.0), 1.0);

  // A constant stream clamps every quantile to the single observed value.
  Histogram c;
  for (int i = 0; i < 100; ++i) c.record(5.0);
  EXPECT_DOUBLE_EQ(c.snapshot().quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(c.snapshot().quantile(0.99), 5.0);

  h.reset();
  EXPECT_EQ(h.snapshot().count, 0);
}

TEST(Metrics, HistogramSnapshotsMergeLosslessly) {
  Histogram a;
  a.record(0.0);  // bucket 0 absorbs zero and negatives
  a.record(-3.0);
  a.record(10.0);
  Histogram b;
  for (int i = 1; i <= 100; ++i) b.record(static_cast<double>(i));

  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 103);
  EXPECT_DOUBLE_EQ(merged.min, -3.0);
  EXPECT_DOUBLE_EQ(merged.max, 100.0);
  EXPECT_DOUBLE_EQ(merged.sum, 7.0 + 5050.0);
  std::int64_t bucket_total = 0;
  for (const std::int64_t v : merged.buckets) bucket_total += v;
  EXPECT_EQ(bucket_total, merged.count);
}

TEST(Metrics, HistogramBucketEdgesCoverValues) {
  for (const double v : {0.0001, 0.5, 1.0, 3.0, 1024.0, 1e9}) {
    const int i = Histogram::bucket_index(v);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, Histogram::kBuckets);
    EXPECT_LT(v, Histogram::bucket_hi(i));
    if (i > 0) {
      EXPECT_GE(v, Histogram::bucket_lo(i));
    }
  }
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-7.0), 0);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);
}

TEST(Metrics, HistogramIsExactUnderParallelFor) {
  Histogram h;
  const int kN = 20000;
  ThreadPool::global().parallel_for(kN, [&](std::int64_t i) {
    h.record(static_cast<double>(i % 7 + 1));
  });
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, kN);  // exact: no sample is dropped under contention
  double expect_sum = 0.0;
  for (int i = 0; i < kN; ++i) expect_sum += static_cast<double>(i % 7 + 1);
  EXPECT_DOUBLE_EQ(s.sum, expect_sum);  // small-int adds are exact in double
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(Metrics, HistogramConcurrentFirstRecordsKeepExactExtremes) {
  // Several threads recording into an empty histogram at once: no first
  // recorder may overwrite an extreme another thread already published.
  // Round 0 starts from construction, every later round from reset().
  Histogram h;
  const int kRounds = 2000;
  const int kThreads = 4;
  int bad_rounds = 0;
  std::string first_bad;
  for (int round = 0; round < kRounds; ++round) {
    h.reset();
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&h, &go, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        h.record(static_cast<double>(t + 1));
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    const auto s = h.snapshot();
    if (s.count != kThreads || s.min != 1.0 ||
        s.max != static_cast<double>(kThreads)) {
      if (bad_rounds++ == 0) {
        first_bad = "round " + std::to_string(round) +
                    ": count=" + std::to_string(s.count) +
                    " min=" + std::to_string(s.min) +
                    " max=" + std::to_string(s.max);
      }
    }
  }
  EXPECT_EQ(bad_rounds, 0) << "first: " << first_bad;
  h.reset();
  const auto empty = h.snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.min, 0.0);  // the ±∞ seeds never leak into a snapshot
  EXPECT_EQ(empty.max, 0.0);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
}

TEST(Metrics, SanitizeMetricNameMapsToPrometheusCharset) {
  EXPECT_EQ(sanitize_metric_name("serve.latency_us.ok"),
            "serve_latency_us_ok");
  EXPECT_EQ(sanitize_metric_name("a:b_c1"), "a:b_c1");  // colons are legal
  EXPECT_EQ(sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(sanitize_metric_name("spaces and-dashes"), "spaces_and_dashes");
}

TEST(Metrics, PrometheusTextExposition) {
  ResetGuard guard;  // exact-value assertions: isolate from run order
  auto& reg = MetricsRegistry::global();
  reg.counter("test.prom/counter").add(7);
  Histogram& h = reg.histogram("test.prom_hist");
  h.reset();
  h.record(1.0);
  h.record(2.0);
  h.record(1000.0);

  const std::string page = reg.prometheus_text();
  const auto npos = std::string::npos;
  EXPECT_NE(page.find("# TYPE test_prom_counter counter"), npos);
  EXPECT_NE(page.find("test_prom_counter 7\n"), npos);
  EXPECT_NE(page.find("# TYPE test_prom_hist histogram"), npos);
  EXPECT_NE(page.find("test_prom_hist_bucket{le=\"+Inf\"} 3\n"), npos);
  EXPECT_NE(page.find("test_prom_hist_sum 1003\n"), npos);
  EXPECT_NE(page.find("test_prom_hist_count 3\n"), npos);
  EXPECT_EQ(page.find(" summary\n"), npos);  // histograms only, no summaries

  // Bucket lines must be cumulative (non-decreasing) and end at _count.
  std::istringstream in(page);
  std::string line;
  std::int64_t prev = 0;
  int bucket_lines = 0;
  while (std::getline(in, line)) {
    if (line.rfind("test_prom_hist_bucket", 0) != 0) continue;
    const auto pos = line.find("} ");
    ASSERT_NE(pos, npos);
    const std::int64_t cum = std::stoll(line.substr(pos + 2));
    EXPECT_GE(cum, prev);
    prev = cum;
    ++bucket_lines;
  }
  EXPECT_GE(bucket_lines, 2);
  EXPECT_EQ(prev, 3);  // the +Inf bucket agrees with _count
}

TEST(Metrics, PrometheusTenantLabelExposition) {
  ResetGuard guard;  // exact-value assertions: isolate from run order
  auto& reg = MetricsRegistry::global();
  // The serve.tenant.<id>.<rest> convention must export as ONE family per
  // <rest> with the tenant id as a label, not as per-tenant metric names.
  reg.counter("serve.tenant.promgold.completed").add(7);
  reg.counter("serve.tenant.prombronze.completed").add(3);
  Histogram& h = reg.histogram("serve.tenant.promgold.latency_us");
  h.reset();
  h.record(10.0);
  h.record(20.0);

  const std::string page = reg.prometheus_text();
  const auto npos = std::string::npos;
  EXPECT_NE(page.find("serve_tenant_completed{tenant=\"promgold\"} 7\n"),
            npos);
  EXPECT_NE(page.find("serve_tenant_completed{tenant=\"prombronze\"} 3\n"),
            npos);
  // The raw per-tenant name must NOT leak into the exposition.
  EXPECT_EQ(page.find("serve_tenant_promgold_completed"), npos);

  // One # TYPE line per family, even though the sorted snapshot scatters
  // the tenants (prombronze sorts before promgold).
  const std::string type_line = "# TYPE serve_tenant_completed counter";
  const std::size_t first = page.find(type_line);
  ASSERT_NE(first, npos);
  EXPECT_EQ(page.find(type_line, first + type_line.size()), npos);

  // Histogram series carry the tenant label on every line, with le last.
  EXPECT_NE(
      page.find("serve_tenant_latency_us_bucket{tenant=\"promgold\",le="),
      npos);
  EXPECT_NE(page.find("serve_tenant_latency_us_bucket{tenant=\"promgold\","
                      "le=\"+Inf\"} 2\n"),
            npos);
  EXPECT_NE(page.find("serve_tenant_latency_us_sum{tenant=\"promgold\"} 30\n"),
            npos);
  EXPECT_NE(
      page.find("serve_tenant_latency_us_count{tenant=\"promgold\"} 2\n"),
      npos);
}

TEST(Metrics, PrometheusTenantLabelValueIsEscaped) {
  ResetGuard guard;
  auto& reg = MetricsRegistry::global();
  // Tenant ids reaching the registry through TenantMetrics are dot-free,
  // but label VALUES may hold any UTF-8 — quotes and backslashes must be
  // escaped per the exposition format.
  reg.counter("serve.tenant.we\"ird\\x.completed").add(1);
  const std::string page = reg.prometheus_text();
  EXPECT_NE(
      page.find("serve_tenant_completed{tenant=\"we\\\"ird\\\\x\"} 1\n"),
      std::string::npos);
}

TEST(Metrics, PrometheusTenantPrefixWithoutSuffixStaysPlain) {
  ResetGuard guard;
  auto& reg = MetricsRegistry::global();
  // A name that starts with the prefix but has no <rest> component cannot
  // be split into (id, family) — it must fall back to the plain mapping.
  reg.counter("serve.tenant.loners").add(2);
  const std::string page = reg.prometheus_text();
  EXPECT_NE(page.find("serve_tenant_loners 2\n"), std::string::npos);
}

TEST(Metrics, FlushReportWritesPrometheusFileOnDemand) {
  const std::string path = testing::TempDir() + "iwg_flush_report_test.prom";
  std::remove(path.c_str());
  MetricsRegistry::global().counter("test.prom_flush_counter").add(3);
  set_report_paths(/*trace_path=*/"", /*metrics_path=*/"",
                   /*prometheus_path=*/path);
  ASSERT_TRUE(flush_report());

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "flush_report did not create " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("test_prom_flush_counter 3"), std::string::npos);
  EXPECT_NE(ss.str().find("# TYPE"), std::string::npos);

  set_report_paths("", "", "");  // unconfigure for later tests
  EXPECT_FALSE(flush_report());
  std::remove(path.c_str());
}

TEST(Metrics, HistogramSnapshotDeltaIsExactPerInterval) {
  Histogram h;
  h.record(2.0);
  h.record(8.0);
  const Histogram::Snapshot t0 = h.snapshot();
  h.record(4.0);
  h.record(4.0);
  h.record(64.0);
  const Histogram::Snapshot t1 = h.snapshot();

  const Histogram::Snapshot d = t1.delta(t0);
  EXPECT_EQ(d.count, 3);
  EXPECT_DOUBLE_EQ(d.sum, 72.0);
  EXPECT_EQ(d.buckets[Histogram::bucket_index(4.0)], 2);
  EXPECT_EQ(d.buckets[Histogram::bucket_index(64.0)], 1);
  // min/max are the tightest provable bounds: occupied delta buckets'
  // edges, clamped to the cumulative extremes.
  EXPECT_LE(d.min, 4.0);
  EXPECT_GE(d.max, 64.0);
  EXPECT_GE(d.min, t1.min);
  EXPECT_LE(d.max, t1.max);

  // Consecutive deltas merge back into the cumulative interval.
  h.record(16.0);
  const Histogram::Snapshot t2 = h.snapshot();
  Histogram::Snapshot merged = t1.delta(t0);
  merged.merge(t2.delta(t1));
  EXPECT_EQ(merged.count, 4);
  EXPECT_DOUBLE_EQ(merged.sum, 88.0);

  // Empty interval → empty snapshot, not garbage.
  const Histogram::Snapshot none = t2.delta(t2);
  EXPECT_EQ(none.count, 0);
  EXPECT_DOUBLE_EQ(none.sum, 0.0);
}

TEST(Metrics, HistogramSnapshotDeltaUnderConcurrentRecord) {
  // A monitor snapshots on an interval while workers keep recording. Torn
  // snapshots are allowed (count/sum/buckets race benignly), but every
  // delta must be sane — no negative bucket counts — and the interval
  // counts must cover every record once the stream quiesces.
  Histogram h;
  constexpr int kWriters = 4;
  constexpr std::int64_t kPerWriter = 50000;
  // Baseline before any writer starts, so every record falls inside some
  // monitored interval and the deltas must account for all of them.
  Histogram::Snapshot prev = h.snapshot();
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, w] {
      for (std::int64_t i = 0; i < kPerWriter; ++i) {
        h.record(static_cast<double>((i + w) % 1024 + 1));
      }
    });
  }
  std::int64_t delta_total = 0;
  while (prev.count < kWriters * kPerWriter) {
    const Histogram::Snapshot cur = h.snapshot();
    const Histogram::Snapshot d = cur.delta(prev);
    EXPECT_GE(d.count, 0);
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      ASSERT_GE(d.buckets[b], 0) << "negative bucket delta at " << b;
    }
    delta_total += d.count;
    prev = cur;
  }
  for (auto& t : writers) t.join();
  const Histogram::Snapshot fin = h.snapshot();
  delta_total += fin.delta(prev).count;
  EXPECT_EQ(fin.count, kWriters * kPerWriter);
  EXPECT_EQ(delta_total, fin.count);  // intervals tile the stream exactly
}

TEST(Metrics, PrometheusPageCarriesHelpBuildInfoAndUptime) {
  ResetGuard guard;
  auto& reg = MetricsRegistry::global();
  reg.set_help("test.helped_counter", "A counter with registered help.");
  reg.counter("test.helped_counter").add(1);
  reg.counter("test.unhelped_counter").add(1);
  reg.set_build_label("flavor", "unit-test");

  const std::string page = reg.prometheus_text();
  const auto npos = std::string::npos;
  // Registered help verbatim; unregistered families get a generic line.
  EXPECT_NE(
      page.find("# HELP test_helped_counter A counter with registered help."),
      npos);
  EXPECT_NE(page.find("# HELP test_unhelped_counter "), npos);
  // Every # TYPE is preceded by a # HELP for the same family.
  std::istringstream in(page);
  std::string line;
  std::string prev_line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string family = line.substr(7, line.find(' ', 7) - 7);
      ASSERT_EQ(prev_line.rfind("# HELP " + family + " ", 0), 0u)
          << "# TYPE without adjacent # HELP: " << line;
    }
    prev_line = line;
  }
  // Synthesized identity gauges lead the page.
  EXPECT_NE(page.find("# TYPE iwg_build_info gauge"), npos);
  EXPECT_NE(page.find("flavor=\"unit-test\""), npos);
  const std::size_t bi = page.find("iwg_build_info{");
  ASSERT_NE(bi, npos);
  EXPECT_NE(page.find("} 1\n", bi), npos);
#ifdef IWG_TRACE_DISABLE
  EXPECT_NE(page.find("trace=\"off\""), npos);
#else
  EXPECT_NE(page.find("trace=\"on\""), npos);
#endif
  EXPECT_NE(page.find("# TYPE iwg_process_uptime_seconds gauge"), npos);
  EXPECT_NE(page.find("iwg_process_uptime_seconds "), npos);
}

TEST(Metrics, ResetGuardScopesExactValues) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.reset_guard_counter");
  c.add(41);
  {
    ResetGuard guard;
    // Entry reset: the scope starts from zero no matter what ran before.
    EXPECT_EQ(c.value(), 0);
    c.add(7);
    EXPECT_EQ(c.value(), 7);
  }
  // Exit reset: nothing leaks into whatever runs after the scope.
  EXPECT_EQ(c.value(), 0);
}

}  // namespace
}  // namespace iwg::trace

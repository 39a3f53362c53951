#include "bench.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) correct = false;
  fact("check." + name,
       "{\"ok\": " + std::string(ok ? "true" : "false") +
           ", \"detail\": " + json_string(detail) + "}");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Spans& Spans::get() {
  static Spans s;
  return s;
}

std::int64_t Spans::open(std::string name, std::int64_t request) {
  const auto id = static_cast<std::int64_t>(records_.size());
  SpanRecord r;
  r.name = std::move(name);
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.request = request;
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_).count();
  records_.push_back(std::move(r));
  stack_.push_back(id);
  return id;
}

void Spans::close(std::int64_t id) {
  records_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_).count();
  stack_.pop_back();
}

bool Spans::write(const std::string& path) const {
  std::ofstream f(path);
  f << "[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    f << "{\"id\": " << i << ", \"name\": " << json_string(r.name)
      << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
      << ", \"parent\": " << r.parent << ", \"request\": " << r.request << "}"
      << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

std::vector<double> span_ms(const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& r : Spans::get().records()) {
    if (r.name == name) out.push_back(r.ms());
  }
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

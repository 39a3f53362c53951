// perfbench: the repo benchmark program.
//
//   perfbench --workload <infer_resnet18|serve_mixed|train_vgg16>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints one full JSON record (environment, every metric with its sample
// count, input hash, checks) and, as the last line, the summary
// {"correct", "attempted", "failed", "metrics"} holding the metrics that
// BENCHMARK.json lists. --trace 0 measures the end-to-end metrics;
// --trace 1 measures the per-layer metrics and writes the recorded spans
// to <out-dir>/spans-<workload>-<seed>.json. The record also goes to
// <out-dir>/record-<workload>-<seed>[-trace].json.
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/host_kernels.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <infer_resnet18|serve_mixed|"
               "train_vgg16> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n";
  return 2;
}

std::string summary_json(const Result& r) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!m.gated) continue;
    o << (first ? "" : ", ") << json_string(m.name)
      << ": {\"value\": " << json_number(m.value)
      << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  o << "}}";
  return o.str();
}

std::string record_json(const Args& a, const Result& r) {
  std::ostringstream o;
  o << "{\"record\": \"perfbench\", \"workload\": " << json_string(a.workload)
    << ", \"seed\": " << a.seed << ", \"seconds\": " << json_number(a.seconds)
    << ", \"trace\": " << (a.trace ? "true" : "false");
  for (const auto& [k, v] : r.facts) o << ", " << json_string(k) << ": " << v;
  o << ", \"metrics\": [";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    o << (i ? ", " : "") << "{\"name\": " << json_string(m.name)
      << ", \"value\": " << json_number(m.value)
      << ", \"unit\": " << json_string(m.unit)
      << ", \"samples\": " << m.samples
      << ", \"gated\": " << (m.gated ? "true" : "false") << "}";
  }
  o << "]}";
  return o.str();
}

}  // namespace

int run_main(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--out-dir") {
        a.out_dir = v;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }
  void (*run)(const Args&, Result&) = nullptr;
  if (a.workload == "infer_resnet18") run = run_infer_resnet18;
  if (a.workload == "serve_mixed") run = run_serve_mixed;
  if (a.workload == "train_vgg16") run = run_train_vgg16;
  if (run == nullptr) return usage(("unknown workload " + a.workload).c_str());

  Result r;
  r.fact("env.cpu_model", json_string(cpu_model()));
  r.fact("env.host_isa",
         json_string(iwg::core::host_isa_name(iwg::core::host_isa())));
  r.fact("env.nproc", std::to_string(std::thread::hardware_concurrency()));
  r.fact("env.pool_workers",
         std::to_string(iwg::ThreadPool::global().size()));
  const CpuTicks ticks0 = read_cpu_ticks();
  try {
    run(a, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  const double steal = steal_share(ticks0, read_cpu_ticks());
  r.fact("env.steal_share", json_number(steal));
  if (a.trace) {
    r.add("env.steal_share", steal, "ratio", 1);
    const std::string path = a.out_dir + "/spans-" + a.workload + "-" +
                             std::to_string(a.seed) + ".json";
    if (!Spans::get().write(path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
    r.fact("spans_file", json_string(path));
    r.fact("spans", std::to_string(Spans::get().records().size()));
  }
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      return 1;
    }
  }
  const std::string record = record_json(a, r);
  std::ofstream(a.out_dir + "/record-" + a.workload + "-" +
                std::to_string(a.seed) + (a.trace ? "-trace" : "") + ".json")
      << record << "\n";
  std::cout << record << "\n" << summary_json(r) << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }

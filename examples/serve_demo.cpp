// Serving demo: one warm model served by a one-tenant FleetScheduler under
// concurrent client load.
//
// Builds a small Winograd CNN, registers it as the only tenant of a fleet
// (admission control + micro-batching + deadlines), then fires requests at
// it from several client threads — most with generous deadlines, some
// deliberately too tight, plus a burst that overflows the queue to show
// rejection.
//
// The demo doubles as the CI serving smoke: it asserts the subsystem's core
// invariant (every submitted future resolves with exactly one Response) and
// exits nonzero if any request is left hanging or the accounting doesn't
// balance. With --metrics <path> it flushes the metrics registry to a
// parseable report (the serve.* entries) via trace::flush_report. With
// --prom it prints the Prometheus text exposition to stdout and
// cross-checks each serve histogram's _count against its counter pair
// (serve.latency_us vs serve.completed, serve.batch_size vs serve.batches),
// exiting nonzero on disagreement.
//
// With --mixed the clients interleave four image sizes request-by-request —
// the head-of-line worst case for a batcher that splits on shape — and the
// demo additionally asserts that the fleet actually coalesced shapes (at
// least one mixed-shape indirect dispatch).
//
// With --fleet the demo instead exercises the multi-tenant FleetScheduler
// as the CI fleet smoke: three tenants at skewed weights (gold 4 / silver 2
// / bronze 1) are kept backlogged while the weighted-fair scheduler serves
// them from one worker pool, with two hot weight swaps of the gold tenant
// mid-window. It exits nonzero if any future is left hanging, any request
// is rejected or fails, the accounting doesn't balance, or any tenant's
// completed-share deviates more than 20% (relative) from its weight share.
//
// With --admin <port> (or IWG_ADMIN_PORT; port 0 picks an ephemeral one)
// the demo additionally runs the live observability plane for the duration:
// an obs::AdminServer serving /metrics, /healthz, /readyz, /statusz,
// /alertz, and /tracez, a Watchdog every worker heartbeats into, and an
// SloMonitor poller ticking the per-tenant burn-rate windows; /statusz is
// the fleet's per-tenant page in both modes. In fleet mode the demo scrapes
// its own /metrics over HTTP at drain and exits nonzero if any tenant's
// serve_tenant_completed{tenant="..."} series disagrees with
// FleetScheduler::stats() — the exposed page must match the scheduler's
// exact accounting.
//
//   build/examples/serve_demo [--clients N] [--requests N] [--metrics path]
//                             [--prom] [--mixed] [--fleet] [--admin port]
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/serialize.hpp"
#include "obs/admin_server.hpp"
#include "obs/slo_monitor.hpp"
#include "obs/watchdog.hpp"
#include "serve/serve.hpp"

namespace {

using namespace iwg;
using namespace std::chrono_literals;

constexpr std::int64_t kImage = 16;

nn::Model make_model(unsigned seed) {
  Rng rng(seed);
  nn::Model m;
  m.add(std::make_unique<nn::Conv2D>(3, 16, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "conv1"));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::Conv2D>(16, 16, 3, 1, 1,
                                     nn::ConvEngine::kWinograd, rng, "conv2"));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::MaxPool2x2>());
  m.add(std::make_unique<nn::Conv2D>(16, 32, 3, 1, 1,
                                     nn::ConvEngine::kWinograd, rng, "conv3"));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::GlobalAvgPool>());
  m.add(std::make_unique<nn::Linear>(32, 10, rng, "fc"));
  return m;
}

/// Conv-only tenant model for the fleet smoke (accepts any H×W). Heavy
/// enough that a batch costs real time — the share window must span many
/// scheduling rounds, not drain in one.
nn::Model make_fleet_model(unsigned seed) {
  Rng rng(seed);
  nn::Model m;
  m.add(std::make_unique<nn::Conv2D>(3, 16, 3, 1, 1, nn::ConvEngine::kWinograd,
                                     rng, "f1"));
  m.add(std::make_unique<nn::LeakyReLU>());
  m.add(std::make_unique<nn::Conv2D>(16, 16, 3, 1, 1,
                                     nn::ConvEngine::kWinograd, rng, "f2"));
  m.add(std::make_unique<nn::LeakyReLU>());
  return m;
}

/// The live observability plane, shared by both demo modes: admin HTTP
/// endpoint + worker watchdog + SLO poller thread (100 ms tick, fast enough
/// that CI-length runs accumulate real windows).
struct AdminPlane {
  obs::Watchdog watchdog{std::chrono::seconds(10)};
  obs::SloMonitor slo;
  obs::AdminServer server;
  std::atomic<bool> stop_flag{false};
  std::thread poller;

  explicit AdminPlane(std::uint16_t port)
      : server([port] {
          obs::AdminServer::Config c;
          c.port = port;
          return c;
        }()) {
    server.wire(&watchdog, &slo);
  }

  void start(std::vector<std::string> tenants) {
    server.start();
    std::printf("admin: http://127.0.0.1:%u  (/metrics /healthz /readyz "
                "/statusz /alertz /tracez)\n",
                static_cast<unsigned>(server.port()));
    poller = std::thread([this, tenants = std::move(tenants)] {
      while (!stop_flag.load(std::memory_order_acquire)) {
        slo.poll_registry(tenants);
        std::this_thread::sleep_for(100ms);
      }
    });
  }

  ~AdminPlane() {
    stop_flag.store(true, std::memory_order_release);
    if (poller.joinable()) poller.join();
    server.stop();
  }
};

/// Minimal loopback HTTP GET (the at-drain self-scrape). Returns the
/// response body, or an empty string on any failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  if (::send(fd, req.data(), req.size(), 0) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return {};
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 5000) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Connection: close terminates the body
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = resp.find("\r\n\r\n");
  if (split == std::string::npos || resp.compare(0, 12, "HTTP/1.1 200") != 0) {
    return {};
  }
  return resp.substr(split + 4);
}

/// Value of `family{labels} v` in a Prometheus page; -1 when absent.
std::int64_t prom_series_value(const std::string& page,
                               const std::string& series) {
  const std::string needle = series + " ";
  std::size_t pos = 0;
  while ((pos = page.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || page[pos - 1] == '\n') {
      return std::atoll(page.c_str() + pos + needle.size());
    }
    pos += needle.size();
  }
  return -1;
}

/// --fleet: the CI fleet smoke (see file comment). Returns the exit code.
/// admin_port >= 0 also runs the observability plane and the at-drain
/// scrape-vs-stats cross-check.
int run_fleet_demo(int admin_port) {
  struct TenantSpec {
    const char* id;
    double weight;
    unsigned seed;
  };
  constexpr TenantSpec kTenants[3] = {
      {"gold", 4.0, 41}, {"silver", 2.0, 42}, {"bronze", 1.0, 43}};
  constexpr int kPrefill = 1500;        // per tenant — deep enough that no
                                        // queue empties inside the window
  constexpr std::int64_t kWindow = 900;  // completions measured for shares

  std::unique_ptr<AdminPlane> plane;
  if (admin_port >= 0) {
    plane = std::make_unique<AdminPlane>(static_cast<std::uint16_t>(admin_port));
  }

  serve::FleetConfig fc;
  fc.workers = 2;
  // The default max_wait (2 ms) stays: it throttles dispatch while the
  // queues are still shallow during prefill, so the share window starts
  // from a genuine backlog.
  fc.idle_wait = 5ms;
  if (plane != nullptr) fc.watchdog = &plane->watchdog;
  serve::FleetScheduler fleet(fc);
  if (plane != nullptr) {
    plane->server.set_readyz([&fleet] { return fleet.ready(); });
    plane->server.set_statusz([&fleet] { return fleet.statusz_json(); });
    plane->start({"gold", "silver", "bronze"});
  }
  for (const TenantSpec& t : kTenants) {
    serve::TenantConfig cfg;
    cfg.id = t.id;
    cfg.weight = t.weight;
    cfg.image_h = 16;
    cfg.image_w = 16;
    cfg.channels = 3;
    cfg.max_batch = 4;
    cfg.queue_capacity = 4096;
    fleet.add_tenant(make_fleet_model(t.seed), cfg);
  }

  // Weight files for the mid-window hot swaps of the gold tenant: same
  // architecture, different seeds.
  const std::string path_a = "serve_demo_fleet_a.iwgw";
  const std::string path_b = "serve_demo_fleet_b.iwgw";
  {
    nn::Model donor_a = make_fleet_model(41);
    nn::Model donor_b = make_fleet_model(51);
    nn::save_weights(donor_a, path_a);
    nn::save_weights(donor_b, path_b);
  }

  std::printf("serve_demo --fleet: 3 tenants (gold 4 / silver 2 / bronze 1), "
              "%u workers, prefill %d each, window %lld completions\n",
              fc.workers, kPrefill, static_cast<long long>(kWindow));

  Rng rng(7);
  std::vector<std::future<serve::Response>> futs;
  futs.reserve(3 * kPrefill);
  for (int i = 0; i < kPrefill; ++i) {
    for (const TenantSpec& t : kTenants) {
      TensorF img({16, 16, 3});
      img.fill_uniform(rng, -1.0f, 1.0f);
      futs.push_back(fleet.submit(t.id, std::move(img)));
    }
  }

  // Share window starts here: the ramp (during which only the first tenant
  // had traffic) is excluded by the baseline.
  std::int64_t base[3] = {0, 0, 0};
  {
    const serve::FleetScheduler::Stats s0 = fleet.stats();
    for (int t = 0; t < 3; ++t) {
      const auto it = s0.tenants.find(kTenants[t].id);
      base[t] = it == s0.tenants.end() ? 0 : it->second.completed;
    }
  }
  int swaps = 0;
  std::uint64_t last_version = 0;
  for (;;) {
    const serve::FleetScheduler::Stats s = fleet.stats();
    std::int64_t total = 0;
    for (int t = 0; t < 3; ++t) total += s.tenants.at(kTenants[t].id).completed - base[t];
    if (total >= kWindow) break;
    // Two hot swaps of the gold tenant in the middle of the window — the
    // zero-drop gate below proves no request was lost across them.
    if (swaps == 0 && total >= kWindow / 4) {
      last_version = fleet.swap_weights("gold", path_b);
      ++swaps;
    } else if (swaps == 1 && total >= kWindow / 2) {
      const std::uint64_t v = fleet.swap_weights("gold", path_a);
      const bool monotone = v > last_version;
      last_version = v;
      if (!monotone) {
        std::printf("FAIL: swap did not advance Param::version\n");
        return 1;
      }
      ++swaps;
    }
    std::this_thread::sleep_for(200us);
  }
  fleet.stop(/*drain=*/false);  // freeze the window; the backlog sheds

  std::int64_t ok = 0, rejected = 0, expired = 0, shutdown = 0, unresolved = 0;
  for (auto& f : futs) {
    if (f.wait_for(30s) != std::future_status::ready) {
      ++unresolved;
      continue;
    }
    switch (f.get().status) {
      case serve::Status::kOk: ++ok; break;
      case serve::Status::kRejected: ++rejected; break;
      case serve::Status::kExpired: ++expired; break;
      case serve::Status::kShutdown: ++shutdown; break;
    }
  }

  const serve::FleetScheduler::Stats s = fleet.stats();
  bool fail = false;
  std::int64_t window_total = 0;
  std::int64_t window[3] = {0, 0, 0};
  for (int t = 0; t < 3; ++t) {
    window[t] = s.tenants.at(kTenants[t].id).completed - base[t];
    window_total += window[t];
  }
  std::printf("resolved: ok %lld  rejected %lld  expired %lld  shutdown %lld "
              " (of %zu)  swaps %d\n",
              static_cast<long long>(ok), static_cast<long long>(rejected),
              static_cast<long long>(expired),
              static_cast<long long>(shutdown), futs.size(), swaps);
  for (int t = 0; t < 3; ++t) {
    const double share =
        static_cast<double>(window[t]) / static_cast<double>(window_total);
    const double expect = kTenants[t].weight / 7.0;
    const double rel_dev = std::fabs(share - expect) / expect;
    std::printf("tenant %-7s weight %.0f  completed %5lld  share %.3f  "
                "weight-share %.3f  rel-dev %.1f%%\n",
                kTenants[t].id, kTenants[t].weight,
                static_cast<long long>(window[t]), share, expect,
                100.0 * rel_dev);
    if (rel_dev > 0.20) {
      std::printf("FAIL: tenant %s completed-share deviates %.1f%% from its "
                  "weight share (gate: 20%%)\n",
                  kTenants[t].id, 100.0 * rel_dev);
      fail = true;
    }
  }
  if (unresolved != 0) {
    std::printf("FAIL: %lld futures never resolved\n",
                static_cast<long long>(unresolved));
    fail = true;
  }
  if (ok + rejected + expired + shutdown !=
      static_cast<std::int64_t>(futs.size())) {
    std::printf("FAIL: response accounting does not cover every request\n");
    fail = true;
  }
  if (rejected != 0 || expired != 0) {
    // No deadlines and deep queues: a reject or expiry means admission or
    // shedding misfired — and a dropped request across a hot swap would
    // surface here.
    std::printf("FAIL: zero-drop gate: rejected %lld expired %lld\n",
                static_cast<long long>(rejected),
                static_cast<long long>(expired));
    fail = true;
  }
  if (swaps != 2) {
    std::printf("FAIL: expected 2 hot swaps inside the window, did %d\n",
                swaps);
    fail = true;
  }
  if (!s.all_resolved()) {
    std::printf("FAIL: fleet stats leak requests (accepted %lld != "
                "completed %lld + expired %lld + shed %lld)\n",
                static_cast<long long>(s.total.accepted),
                static_cast<long long>(s.total.completed),
                static_cast<long long>(s.total.expired),
                static_cast<long long>(s.total.shed));
    fail = true;
  }
  if (plane != nullptr) {
    // The acceptance gate: the live /metrics page, fetched over real HTTP
    // at drain, must agree exactly with the scheduler's own accounting.
    const std::string page = http_get(plane->server.port(), "/metrics");
    if (page.empty()) {
      std::printf("FAIL: /metrics scrape returned no 200 body\n");
      fail = true;
    }
    for (const TenantSpec& t : kTenants) {
      const std::int64_t scraped = prom_series_value(
          page, std::string("serve_tenant_completed{tenant=\"") + t.id + "\"}");
      const std::int64_t exact = s.tenants.at(t.id).completed;
      if (scraped != exact) {
        std::printf("FAIL: scraped serve_tenant_completed{tenant=\"%s\"} "
                    "%lld != scheduler accounting %lld\n",
                    t.id, static_cast<long long>(scraped),
                    static_cast<long long>(exact));
        fail = true;
      }
    }
    if (page.find("iwg_build_info{") == std::string::npos) {
      std::printf("FAIL: /metrics page lacks iwg_build_info\n");
      fail = true;
    }
    if (http_get(plane->server.port(), "/healthz").empty()) {
      std::printf("FAIL: /healthz is not 200 at drain\n");
      fail = true;
    }
    const std::string alertz = http_get(plane->server.port(), "/alertz");
    if (alertz.find("\"tenants\"") == std::string::npos) {
      std::printf("FAIL: /alertz JSON lacks a tenants object\n");
      fail = true;
    }
    if (!fail) {
      std::printf("scrape:  /metrics matches scheduler accounting for all "
                  "3 tenants\n");
    }
  }
  // Tear the plane down while the fleet it references is still alive.
  plane.reset();
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::printf(fail ? "FAIL\n" : "PASS\n");
  return fail ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  int clients = 4;
  int requests_per_client = 64;
  bool prom = false;
  bool mixed = false;
  bool fleet_mode = false;
  int admin_port = -1;  // < 0: no admin endpoint
  std::string metrics_path;
  if (const char* env = std::getenv("IWG_ADMIN_PORT");
      env != nullptr && *env != '\0') {
    admin_port = std::atoi(env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc)
      clients = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requests_per_client = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc)
      metrics_path = argv[++i];
    if (std::strcmp(argv[i], "--admin") == 0 && i + 1 < argc)
      admin_port = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--prom") == 0) prom = true;
    if (std::strcmp(argv[i], "--mixed") == 0) mixed = true;
    if (std::strcmp(argv[i], "--fleet") == 0) fleet_mode = true;
  }
  if (!metrics_path.empty()) {
    trace::set_report_paths(/*trace_path=*/"", metrics_path);
  }
  if (fleet_mode) return run_fleet_demo(admin_port);

  std::unique_ptr<AdminPlane> plane;
  if (admin_port >= 0) {
    plane = std::make_unique<AdminPlane>(static_cast<std::uint16_t>(admin_port));
  }

  serve::FleetConfig fc;
  fc.workers = 2;
  fc.max_wait = 2ms;
  fc.flush_period = metrics_path.empty() ? 0us : 200000us;  // periodic flush
  if (plane != nullptr) fc.watchdog = &plane->watchdog;
  serve::FleetScheduler fleet(fc);
  serve::TenantConfig tc;
  tc.id = "demo";
  tc.image_h = kImage;
  tc.image_w = kImage;
  tc.channels = 3;
  tc.max_batch = 8;
  tc.queue_capacity = 128;
  if (plane != nullptr) {
    plane->server.set_readyz([&fleet] { return fleet.ready(); });
    plane->server.set_statusz([&fleet] { return fleet.statusz_json(); });
    plane->start({tc.id});
  }
  fleet.add_tenant(make_model(/*seed=*/42), tc);

  std::printf("serve_demo: %d clients x %d requests%s, batch cap %zu, "
              "%u workers, queue %zu\n",
              clients, requests_per_client,
              mixed ? " (interleaved mixed shapes)" : "", tc.max_batch,
              fc.workers, tc.queue_capacity);

  // Client threads: every 8th request gets a deliberately hopeless deadline
  // to exercise shedding; the rest get a comfortable one.
  std::vector<std::vector<std::future<serve::Response>>> futures(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(static_cast<unsigned>(1000 + c));
      auto& mine = futures[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(requests_per_client));
      // --mixed: cycle four resolutions request-by-request (even sizes —
      // the model has a MaxPool2x2; the GAP head accepts any of them).
      static constexpr std::int64_t kMixedSizes[4] = {16, 12, 8, 10};
      for (int i = 0; i < requests_per_client; ++i) {
        const std::int64_t hw = mixed ? kMixedSizes[i % 4] : kImage;
        TensorF img({hw, hw, 3});
        img.fill_uniform(rng, -1.0f, 1.0f);
        const serve::Deadline d = (i % 8 == 7)
                                      ? serve::Deadline::after(1us)
                                      : serve::Deadline::after(2s);
        mine.push_back(fleet.submit(tc.id, std::move(img), d));
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every future must resolve — kOk, kRejected, kExpired, or kShutdown all
  // count; an unresolved future is the one unacceptable outcome.
  std::int64_t ok = 0, rejected = 0, expired = 0, shutdown = 0, unresolved = 0;
  double latency_sum_us = 0.0;
  for (auto& per_client : futures) {
    for (auto& f : per_client) {
      if (f.wait_for(30s) != std::future_status::ready) {
        ++unresolved;
        continue;
      }
      const serve::Response r = f.get();
      switch (r.status) {
        case serve::Status::kOk:
          ++ok;
          latency_sum_us += r.latency_us;
          break;
        case serve::Status::kRejected: ++rejected; break;
        case serve::Status::kExpired: ++expired; break;
        case serve::Status::kShutdown: ++shutdown; break;
      }
    }
  }
  bool fail = false;
  if (plane != nullptr) {
    // Smoke the live endpoints while the fleet still serves (a stopped
    // fleet is not ready): the scrape must be a 200 with the synthesized
    // identity gauge on it, and /statusz the fleet page naming the tenant.
    const std::string page = http_get(plane->server.port(), "/metrics");
    const std::string status = http_get(plane->server.port(), "/statusz");
    if (page.find("iwg_build_info{") == std::string::npos ||
        status.find("\"" + tc.id + "\":{\"queue_depth\"") ==
            std::string::npos ||
        http_get(plane->server.port(), "/healthz").empty() ||
        http_get(plane->server.port(), "/readyz").empty()) {
      std::printf("FAIL: admin endpoint smoke "
                  "(metrics/statusz/healthz/readyz)\n");
      fail = true;
    }
    // Tear the plane down while the fleet it references is still alive.
    plane.reset();
  }
  fleet.stop(/*drain=*/true);
  const serve::FleetScheduler::TenantStats stats = fleet.stats().total;

  const std::int64_t total =
      static_cast<std::int64_t>(clients) * requests_per_client;
  std::printf("resolved: ok %lld  rejected %lld  expired %lld  shutdown %lld "
              " (of %lld)\n",
              static_cast<long long>(ok), static_cast<long long>(rejected),
              static_cast<long long>(expired),
              static_cast<long long>(shutdown), static_cast<long long>(total));
  std::printf("fleet:    accepted %lld  completed %lld  batches %lld "
              "(indirect %lld)  mean batch %.2f  mean latency %.0f us\n",
              static_cast<long long>(stats.accepted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.batches),
              static_cast<long long>(stats.indirect_batches),
              stats.batches > 0
                  ? static_cast<double>(stats.completed) /
                        static_cast<double>(stats.batches)
                  : 0.0,
              ok > 0 ? latency_sum_us / static_cast<double>(ok) : 0.0);

  if (unresolved != 0) {
    std::printf("FAIL: %lld futures never resolved\n",
                static_cast<long long>(unresolved));
    fail = true;
  }
  if (ok + rejected + expired + shutdown != total) {
    std::printf("FAIL: response accounting does not cover every request\n");
    fail = true;
  }
  if (!stats.all_resolved()) {
    std::printf("FAIL: fleet stats leak requests (accepted %lld != "
                "completed %lld + expired %lld + shed %lld)\n",
                static_cast<long long>(stats.accepted),
                static_cast<long long>(stats.completed),
                static_cast<long long>(stats.expired),
                static_cast<long long>(stats.shed));
    fail = true;
  }
  if (mixed && stats.indirect_batches == 0) {
    std::printf("FAIL: interleaved mixed-shape load produced no indirect "
                "(ragged) dispatches\n");
    fail = true;
  }
  if (prom) {
    // Exposition for a scraper, plus a self-check: each serve histogram
    // records exactly once per event its counter pair counts, so their
    // totals must agree — a mismatch means some path updated one side only.
    const trace::MetricsRegistry::Snapshot snap =
        trace::MetricsRegistry::global().snapshot();
    auto hist_count = [&](const std::string& name) -> std::int64_t {
      for (const auto& [n, h] : snap.histograms) {
        if (n == name) return h.count;
      }
      return -1;
    };
    auto counter_value = [&](const std::string& name) -> std::int64_t {
      for (const auto& [n, c] : snap.counters) {
        if (n == name) return c;
      }
      return -1;
    };
    const struct {
      const char* hist;
      const char* counter;
    } pairs[] = {
        {"serve.latency_us", "serve.completed"},
        {"serve.batch_size", "serve.batches"},
    };
    for (const auto& p : pairs) {
      const std::int64_t hc = hist_count(p.hist);
      const std::int64_t cv = counter_value(p.counter);
      if (hc != cv) {
        std::printf("FAIL: histogram %s count %lld != counter %s %lld\n",
                    p.hist, static_cast<long long>(hc), p.counter,
                    static_cast<long long>(cv));
        fail = true;
      }
    }
    std::fputs(trace::MetricsRegistry::global().prometheus_text().c_str(),
               stdout);
  }
  if (!metrics_path.empty() && !trace::flush_report()) {
    std::printf("FAIL: metrics flush to %s failed\n", metrics_path.c_str());
    fail = true;
  }
  std::printf(fail ? "FAIL\n" : "PASS\n");
  return fail ? 1 : 0;
}

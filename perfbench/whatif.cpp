// whatif-serve: a keddah serve daemon with 2 handler threads on loopback,
// driven by a closed loop of 2 client connections sending POST /v1/whatif
// (CLI scripts and notebooks wait for each answer).
//
// Each epoch starts a fresh daemon and plays one seeded request sequence:
// every body of a kPool-entry pool (smaller than the 128-entry response
// cache) kRepeats times in shuffled order. The first ask of a body is a cold
// core::run_scenario; the rest are cache hits. So 1 / kRepeats of the
// requests are cold: whatif_p50_ms prices the api/lint/serve/transport path
// of a hit and whatif_p99_ms lands among the cold answers. Job sizes are
// stratified over 1-4 GB and job types fixed per stratum, so every seed
// covers the same cost range; sizes to 8 GB made a few superlinear sort and
// terasort answers dominate each epoch and its spread across seeds.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "api/specs.h"
#include "harness.h"
#include "keddah/scenario.h"
#include "lint/lint.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

namespace ks = keddah::serve;

namespace {

constexpr std::size_t kPool = 96;
constexpr std::size_t kRepeats = 25;
constexpr std::size_t kHandlerThreads = 2;
constexpr std::size_t kConnections = 2;
constexpr double kMaxMb = 4096.0;
constexpr const char* kJobs[] = {"sort", "wordcount", "terasort", "grep"};

std::string scenario_body(std::uint64_t seed, const char* job, std::uint64_t input_mb) {
  return keddah::util::format(
      R"({"seed": %llu, "cluster": {"racks": 4, "hosts_per_rack": 4, "containers": 4, )"
      R"("locality_delay_s": 2.0}, "jobs": [{"workload": "%s", "input": "%llu MB"}]})",
      static_cast<unsigned long long>(seed), job, static_cast<unsigned long long>(input_mb));
}

/// The seeded pool: entry i asks for a job of size stratum i of 1-8 GB,
/// jittered within its stratum; the job type cycles with the stratum.
std::vector<std::string> make_pool(std::uint64_t seed) {
  keddah::util::Rng rng(keddah::util::derive_seed(seed, 0));
  std::vector<std::string> pool;
  const double stratum_mb = (kMaxMb - 1024.0) / kPool;
  for (std::size_t i = 0; i < kPool; ++i) {
    const double mb = 1024.0 + stratum_mb * (static_cast<double>(i) + rng.uniform());
    pool.push_back(scenario_body(keddah::util::derive_seed(seed, 1 + i),
                                 kJobs[i % std::size(kJobs)],
                                 static_cast<std::uint64_t>(mb)));
  }
  return pool;
}

/// Pool indices in request order: each entry kRepeats times, shuffled.
std::vector<std::size_t> make_sequence(std::uint64_t seed) {
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i < kPool; ++i) order.push_back(i);
  }
  keddah::util::Rng rng(keddah::util::derive_seed(seed, 2));
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform() * static_cast<double>(i + 1)) % (i + 1);
    std::swap(order[i], order[j]);
  }
  return order;
}

/// One HTTP/1.1 exchange on its own connection (the daemon closes after
/// each response), driven by poll() so one thread keeps both client
/// connections busy.
struct Exchange {
  int fd = -1;
  std::size_t entry = 0;
  std::uint64_t id = 0;
  Clock::time_point start;
  std::string response;
};

bool open_exchange(Exchange& ex, std::uint16_t port, const std::string& body) {
  ex.response.clear();
  ex.start = Clock::now();
  ex.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ex.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(ex.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return false;
  const std::string request = "POST /v1/whatif HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Type: application/json\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(ex.fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

struct Reply {
  int status = 0;
  std::string body;
};

Reply parse_reply(const std::string& raw) {
  Reply reply;
  const std::size_t split = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || split == std::string::npos) return reply;
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(split + 4);
  return reply;
}

struct EpochOutput {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  /// Body received for each pool entry (first answer), plus the warm one.
  std::vector<std::string> bodies;
  std::string warm_body;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t transport_errors = 0;
  ks::ServerStats stats;
  std::string failure;
};

ks::ServeOptions serve_options() {
  ks::ServeOptions options;
  options.threads = kHandlerThreads;
  return options;
}

EpochOutput run_epoch(const std::vector<std::string>& pool, const std::string& warm,
                      const std::vector<std::size_t>& sequence, Tracer& tracer,
                      std::uint64_t epoch) {
  EpochOutput out;
  out.bodies.assign(pool.size(), std::string());
  // Set-up: a fresh daemon, listening, answering one warm request.
  const Clock::time_point t0 = Clock::now();
  ks::Server server(serve_options());
  server.start();
  {
    Exchange ex;
    if (!open_exchange(ex, server.port(), warm)) {
      out.failure = "warm request could not be sent";
    } else {
      char buf[16384];
      ssize_t n;
      while ((n = ::recv(ex.fd, buf, sizeof(buf), 0)) > 0) ex.response.append(buf, n);
    }
    if (ex.fd >= 0) ::close(ex.fd);
    const Reply reply = parse_reply(ex.response);
    if (reply.status != 200 && out.failure.empty()) out.failure = "warm request failed";
    out.warm_body = reply.body;
  }
  const Clock::time_point t1 = Clock::now();

  std::vector<Exchange> live(kConnections);
  std::size_t next = 0;
  std::size_t active = 0;
  auto launch = [&](Exchange& ex) {
    while (next < sequence.size()) {
      ex.entry = sequence[next];
      ex.id = epoch * sequence.size() + next;
      ++next;
      if (open_exchange(ex, server.port(), pool[ex.entry])) {
        ++active;
        return;
      }
      if (ex.fd >= 0) ::close(ex.fd);
      ex.fd = -1;
      ++out.requests;
      ++out.failed;
      ++out.transport_errors;
    }
  };
  for (Exchange& ex : live) launch(ex);
  std::vector<pollfd> fds(kConnections);
  char buf[16384];
  while (active > 0) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds[c] = pollfd{live[c].fd, POLLIN, 0};
    }
    if (::poll(fds.data(), fds.size(), 30000) <= 0) {
      out.failure = "a request got no answer within 30 s";
      break;
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      Exchange& ex = live[c];
      if (ex.fd < 0 || fds[c].revents == 0) continue;
      const ssize_t n = ::recv(ex.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        ex.response.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      const Clock::time_point done = Clock::now();
      ::close(ex.fd);
      ex.fd = -1;
      --active;
      ++out.requests;
      const Reply reply = parse_reply(ex.response);
      const double ms = 1e3 * seconds_between(ex.start, done);
      out.latency_ms.push_back(ms);
      // Client-side span of one request; its run id is the request id.
      tracer.add("http.whatif", ex.id, ex.start, done);
      std::string& first = out.bodies[ex.entry];
      if (n < 0) {
        ++out.transport_errors;
        ++out.failed;
      } else if (reply.status != 200) {
        ++out.failed;
      } else if (first.empty()) {
        first = reply.body;
      } else if (reply.body != first) {
        ++out.failed;
      }
      launch(ex);
    }
  }
  for (Exchange& ex : live) {
    if (ex.fd >= 0) ::close(ex.fd);
  }
  out.wall_s = seconds_since(t1);
  out.setup_s = seconds_between(t0, t1);
  out.stats = server.stats();
  server.stop();
  return out;
}

/// Median over `reps` timings of fn(), in microseconds.
template <typename Fn>
double median_us(std::size_t reps, Fn&& fn) {
  std::vector<double> us;
  for (std::size_t i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(1e6 * seconds_since(t0));
  }
  return median(us);
}

std::uint64_t transport_failures(const keddah::serve::TransportStats& t) {
  return t.rejected_pending + t.header_timeouts + t.body_timeouts + t.oversized + t.malformed +
         t.early_disconnects + t.write_aborts;
}

/// Confines the process to the last `count` CPUs it may run on. Unconfined,
/// the daemon's accept, handler and client threads wake each other across
/// all CPUs, and on a VM every cross-CPU wakeup that lands on a vCPU the
/// hypervisor has descheduled waits for it: 10% steal time doubled the
/// epoch time. On kHandlerThreads CPUs the handlers still run in parallel.
void confine_to_cpus(std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::size_t taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < count; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    ++taken;
  }
  if (taken > 0) sched_setaffinity(0, sizeof(chosen), &chosen);
}

}  // namespace

Result run_whatif(const Options& options) {
  confine_to_cpus(kHandlerThreads);
  Result result;
  Tracer tracer(false);
  const std::vector<std::string> pool = make_pool(options.seed);
  const std::vector<std::size_t> sequence = make_sequence(options.seed);
  const std::string warm = scenario_body(keddah::util::derive_seed(options.seed, 3), "sort", 512);

  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  std::vector<double> latency_ms;
  std::vector<double> traced_latency_ms;
  std::vector<std::string> bodies(pool.size());
  std::string warm_body;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t shed = 0;
  std::uint64_t transport_errors = 0;

  // A traced run alternates untraced and traced epochs, two of each.
  const Clock::time_point window = Clock::now();
  for (std::uint64_t epoch = 0;
       options.trace ? epoch < 4 : (epoch < 2 || seconds_since(window) < options.seconds);
       ++epoch) {
    const bool traced = options.trace && epoch % 2 == 1;
    tracer.set_enabled(traced);
    EpochOutput out = run_epoch(pool, warm, sequence, tracer, epoch);
    setup_s.push_back(out.setup_s);
    (traced ? traced_wall_s : wall_s).push_back(out.wall_s);
    auto& lat = traced ? traced_latency_ms : latency_ms;
    lat.insert(lat.end(), out.latency_ms.begin(), out.latency_ms.end());
    requests += out.requests;
    hits += out.stats.cache_hits;
    misses += out.stats.cache_misses;
    shed += out.stats.admission.shed;
    transport_errors += out.transport_errors + transport_failures(out.stats.transport);

    // Every epoch must serve the same bytes for the same body.
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (bodies[i].empty()) bodies[i] = out.bodies[i];
      if (out.bodies[i] != bodies[i]) ++mismatched;
    }
    if (warm_body.empty()) warm_body = out.warm_body;
    result.attempted += out.requests + 1;
    result.failed += out.failed + mismatched + (out.warm_body != warm_body ? 1 : 0);
    if (!out.failure.empty()) {
      ++result.failed;
      result.failures.push_back("epoch " + std::to_string(epoch) + ": " + out.failure);
    }
    if (out.failed + mismatched > 0) {
      result.failures.push_back("epoch " + std::to_string(epoch) + ": " +
                                std::to_string(out.failed + mismatched) + " bad responses");
    }
  }

  // The CLI <-> daemon identity contract: every served body equals
  // api::to_body(api::whatif_response(core::run_scenario(...))) computed
  // here, in process. This pass also prices the layers for traced runs.
  std::vector<double> run_ms;
  std::vector<double> serialize_us;
  std::vector<double> parse_us;
  std::vector<double> lint_us;
  std::vector<double> api_us;
  std::vector<double> hit_us;
  std::vector<double> miss_ms;
  std::vector<double> reshares, links, visited, rerated, heap;
  // Traced runs time Server::handle in process, without the transport.
  std::optional<ks::Server> in_process;
  if (options.trace) in_process.emplace(serve_options());
  for (std::size_t i = 0; i <= pool.size(); ++i) {
    const std::string& body = i < pool.size() ? pool[i] : warm;
    const std::string& served = i < pool.size() ? bodies[i] : warm_body;
    const auto doc = keddah::util::Json::parse(body);
    const auto request = keddah::api::parse_whatif_request(doc, "request");
    const Clock::time_point t0 = Clock::now();
    const auto outcome = keddah::core::run_scenario(request.scenario);
    const Clock::time_point t1 = Clock::now();
    const std::string expected = keddah::api::to_body(keddah::api::whatif_response(outcome));
    const Clock::time_point t2 = Clock::now();
    ++result.attempted;
    if (expected != served) {
      ++result.failed;
      result.failures.push_back("pool entry " + std::to_string(i) +
                                ": served body differs from the in-process answer");
    }
    if (!options.trace || i == pool.size()) continue;
    run_ms.push_back(1e3 * seconds_between(t0, t1));
    serialize_us.push_back(1e6 * seconds_between(t1, t2));
    reshares.push_back(static_cast<double>(outcome.scheduler.reshares));
    links.push_back(outcome.scheduler.links_per_reshare());
    visited.push_back(static_cast<double>(outcome.scheduler.flows_visited));
    rerated.push_back(static_cast<double>(outcome.scheduler.flows_rerated));
    heap.push_back(static_cast<double>(outcome.scheduler.heap_ops));
    parse_us.push_back(median_us(21, [&] { (void)keddah::util::Json::parse(body); }));
    lint_us.push_back(median_us(21, [&] {
      std::vector<keddah::lint::Diagnostic> diagnostics;
      keddah::lint::lint_scenario(doc, "request", diagnostics);
    }));
    api_us.push_back(
        median_us(21, [&] { (void)keddah::api::parse_whatif_request(doc, "request"); }));
    const ks::HttpRequest http{"POST", "/v1/whatif", body};
    const Clock::time_point m0 = Clock::now();
    (void)in_process->handle(http);  // cold: runs the scenario
    miss_ms.push_back(1e3 * seconds_since(m0));
    hit_us.push_back(median_us(21, [&] { (void)in_process->handle(http); }));
  }

  result.end_to_end["wall_s"] = median(wall_s);
  result.end_to_end["setup_s"] = median(setup_s);
  result.end_to_end["peak_rss_mb"] = peak_rss_mb();
  result.end_to_end["whatif_p50_ms"] = quantile(latency_ms, 0.50);
  result.end_to_end["whatif_p99_ms"] = quantile(latency_ms, 0.99);
  result.end_to_end["whatif_qps"] = static_cast<double>(latency_ms.size()) / sum(wall_s);

  if (options.trace) {
    result.layers["trace.overhead_s"] = median(traced_wall_s) - median(wall_s);
    result.layers["trace.spans"] = static_cast<double>(tracer.size());
    result.layers["json.parse_us"] = median(parse_us);
    result.layers["lint.scenario_us"] = median(lint_us);
    result.layers["api.parse_us"] = median(api_us);
    result.layers["api.serialize_us"] = median(serialize_us);
    result.layers["serve.handle_hit_us"] = median(hit_us);
    result.layers["http.overhead_us"] =
        1e3 * quantile(traced_latency_ms, 0.50) - median(hit_us);
    result.layers["scenario.run_ms"] = median(run_ms);
    result.layers["serve.handle_miss_ms"] = median(miss_ms);
    result.layers["serve.requests"] = static_cast<double>(requests);
    result.layers["serve.cache_hit_ratio"] =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
    result.layers["serve.admission_shed"] = static_cast<double>(shed);
    result.layers["serve.transport_errors"] = static_cast<double>(transport_errors);
    result.layers["net.reshares"] = median(reshares);
    result.layers["net.links_per_reshare"] = median(links);
    result.layers["net.flows_visited"] = median(visited);
    result.layers["net.flows_rerated"] = median(rerated);
    result.layers["net.heap_ops"] = median(heap);
    tracer.write(options.work_dir + "/spans-whatif-serve.json", options.workload, options.seed);
  }
  return result;
}

}  // namespace perfbench

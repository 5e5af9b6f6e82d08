// Serving section: the routed daemon (net::RoutedServer) in this process on
// an ephemeral loopback port, driven by net::run_loadgen in one closed-loop
// phase per verb; plus the socket-free engine and protocol timings.
#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/budget.hpp"
#include "core/rng.hpp"
#include "net/engine.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "reference.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using mts::net::Mix;

constexpr const char* kHost = "127.0.0.1";

/// Pins the calling thread, for the guard's lifetime, to one CPU: the last
/// one the process may use.  Every thread of the daemon (listener, queue
/// worker, connection reader and writer) and of the load generator starts
/// from a thread pinned here and inherits the CPU, so a request's four
/// hand-offs are wake-ups on one run queue.  Spread over three CPUs, every
/// hand-off was a cross-CPU wake-up: consecutive 0.1 s route rounds on a
/// 4-vCPU VM swung between 30k and 86k requests/s, and over ten seeds on
/// a busier host the run's route throughput spread 94% of its median.  On
/// one CPU the same ten-seed spread is 3-5% (route ~43k/s on Los Angeles).
class ServingAffinity {
 public:
  ServingAffinity() {
    CPU_ZERO(&saved_);
    pinned_ = pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) == 0;
    if (!pinned_) return;  // unknown CPU set: leave the thread where it is
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        cpu_set_t pinned;
        CPU_ZERO(&pinned);
        CPU_SET(cpu, &pinned);
        pthread_setaffinity_np(pthread_self(), sizeof pinned, &pinned);
        return;
      }
    }
  }
  ~ServingAffinity() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  ServingAffinity(const ServingAffinity&) = delete;
  ServingAffinity& operator=(const ServingAffinity&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Round `round` of a verb draws its requests from its own stream of the
/// run's seed.
mts::net::LoadgenOptions loadgen_options(const Workload& workload, const Options& options,
                                         Mix mix, std::uint64_t requests, int round) {
  mts::net::LoadgenOptions lo;
  lo.requests = requests;
  lo.connections = 1;
  lo.window = workload.load(mix).window;
  lo.seed = mts::derive_seed(options.seed, {0x73657276ULL, static_cast<std::uint64_t>(mix),
                                            static_cast<std::uint64_t>(round)});  // "serv"
  lo.mix = mix;
  lo.kalt_k = kKaltK;
  lo.attack_rank = kAttackRank;
  lo.table_dim = kTableDim;
  lo.weight = mts::net::WeightKind::Time;
  return lo;
}

bool close_enough(double got, double want) {
  if (std::isinf(want) || std::isinf(got)) return std::isinf(want) && std::isinf(got);
  // %.9g on the wire: nine significant digits.
  return std::abs(got - want) <= 1e-8 * std::max(1.0, std::abs(want));
}

double field_double(const mts::net::Response& response, const char* key) {
  const std::string text = response.field(key);
  if (text.empty()) throw std::runtime_error(std::string("missing field ") + key);
  return std::stod(text);
}

std::vector<double> split_doubles(const std::string& text) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string token = text.substr(start, comma == std::string::npos ? std::string::npos
                                                                            : comma - start);
    values.push_back(std::stod(token));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

std::string check_answer(const mts::DiGraph& graph, std::span<const double> weights,
                         const ServedAnswer& answer) {
  using mts::net::Verb;
  const mts::net::Request& request = answer.request;
  const mts::net::Response& response = answer.response;
  if (!response.ok) return "error response: " + response.error;
  const mts::NodeId source(request.source);
  const mts::NodeId target(request.target);
  switch (request.verb) {
    case Verb::Route: {
      const double want = reference_distance(graph, weights, source, target);
      const bool found = response.field("found") == "1";
      if (found != !std::isinf(want)) return "route found=" + response.field("found");
      if (found && !close_enough(field_double(response, "dist"), want)) {
        return "route dist " + response.field("dist") + " != reference " + std::to_string(want);
      }
      return {};
    }
    case Verb::Table: {
      const std::vector<double> vals = split_doubles(response.field("vals"));
      if (vals.size() != request.sources.size() * request.targets.size()) {
        return "table has " + std::to_string(vals.size()) + " entries";
      }
      for (std::size_t i = 0; i < request.sources.size(); ++i) {
        const auto dist = reference_distances(graph, weights, mts::NodeId(request.sources[i]));
        for (std::size_t j = 0; j < request.targets.size(); ++j) {
          const double want = dist[request.targets[j]];
          const double got = vals[i * request.targets.size() + j];
          if (!close_enough(got, want)) {
            return "table entry (" + std::to_string(i) + "," + std::to_string(j) + ") " +
                   std::to_string(got) + " != reference " + std::to_string(want);
          }
        }
      }
      return {};
    }
    case Verb::Kalt: {
      const double want = reference_distance(graph, weights, source, target);
      const auto paths = std::stoull(response.field("paths"));
      if (std::isinf(want)) return paths == 0 ? std::string() : "kalt paths on unreachable pair";
      if (paths < 1 || paths > request.k) return "kalt paths=" + response.field("paths");
      const double best = field_double(response, "best");
      const double worst = field_double(response, "worst");
      if (!close_enough(best, want)) {
        return "kalt best " + response.field("best") + " != reference " + std::to_string(want);
      }
      if (best > worst) return "kalt best " + response.field("best") + " > worst " +
                               response.field("worst");
      return {};
    }
    case Verb::Attack: {
      const std::string status = response.field("status");
      const auto removed = std::stoull(response.field("removed"));
      const double cost = field_double(response, "cost");
      // Uniform costs: every removed directed segment costs exactly 1.
      if (!close_enough(cost, static_cast<double>(removed))) {
        return "attack cost " + response.field("cost") + " != removed " +
               response.field("removed");
      }
      if (status == "success" && removed < 1) return "attack success with nothing removed";
      return {};
    }
    default:
      return "unexpected verb";
  }
}

}  // namespace

std::string check_served_answer(const mts::DiGraph& graph, std::span<const double> weights,
                                const ServedAnswer& answer) {
  try {
    return check_answer(graph, weights, answer);
  } catch (const std::exception& e) {
    return std::string("malformed answer: ") + e.what();
  }
}

const VerbLoad& Workload::load(Mix mix) const {
  switch (mix) {
    case Mix::Route: return route;
    case Mix::Table: return table;
    case Mix::Kalt: return kalt;
    default: return attack;
  }
}

/// Runs serve() on its own thread; the destructor stops and joins it, also
/// when a phase throws.
struct Server::Impl {
  std::unique_ptr<mts::net::RoutedServer> server;
  std::mutex mutex;
  std::string failure;  // guarded by mutex
  std::thread thread;
};

Server::Server(const City& city, const Options& options) : impl_(std::make_unique<Impl>()) {
  const ServingAffinity pin;
  mts::net::RoutedOptions ro;
  ro.host = kHost;
  ro.port = 0;
  ro.threads = options.server_workers;
  impl_->server = std::make_unique<mts::net::RoutedServer>(*city.snapshot, ro);
  impl_->server->start();
  impl_->thread = std::thread([impl = impl_.get()] {
    try {
      impl->server->serve();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(impl->mutex);
      impl->failure = e.what();
    }
  });
}

Server::~Server() {
  impl_->server->request_stop();
  impl_->thread.join();
}

std::uint16_t Server::port() const { return impl_->server->port(); }

std::string Server::failure() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->failure;
}

void check_answers(const Workload& workload, const Options& options, const City& city,
                   const Server& server, Report& report) {
  const mts::net::Snapshot& snapshot = *city.snapshot;
  const auto& weights = snapshot.weights(true);
  for (Mix mix : kServedMixes) {
    const std::string verb = mts::net::to_string(mix);
    const std::uint64_t count = workload.load(mix).check_requests;
    Span span("bench.check_answers", "verb=" + verb);
    auto lo = loadgen_options(workload, options, mix, count, 0);
    lo.dump_path = options.work_dir + "/answers_" + verb + ".txt";
    mts::net::LoadReport lr;
    {
      const ServingAffinity pin;
      lr = mts::net::run_loadgen(kHost, server.port(), lo);
    }
    const auto requests = mts::net::synthesize_requests(lo, snapshot.num_nodes());
    std::map<std::uint64_t, const mts::net::Request*> by_id;
    for (const auto& request : requests) by_id[request.id] = &request;
    std::ifstream dump(lo.dump_path);
    std::string line;
    std::uint64_t answered = 0;
    while (std::getline(dump, line)) {
      ServedAnswer answer;
      try {
        answer.response = mts::net::parse_response(line);
      } catch (const std::exception&) {
        report.check_failed(verb + ": unparsable answer '" + line + "'");
        continue;
      }
      const auto it = by_id.find(answer.response.id);
      if (it == by_id.end()) {
        report.check_failed(verb + ": answer to unknown id: " + line);
        continue;
      }
      answer.request = *it->second;
      ++answered;
      const std::string why = check_served_answer(snapshot.graph(), weights, answer);
      if (!why.empty()) report.check_failed(verb + " answer '" + line + "': " + why);
    }
    Tally& tally = report.tally("check." + verb);
    tally.attempted += count;
    tally.failed += lr.errors + lr.dropped + (count - lr.sent);
    if (answered != count) {
      report.check_failed(verb + ": " + std::to_string(answered) + " of " +
                          std::to_string(count) + " check requests answered");
    }
  }
}

VerbRound run_verb_round(const Workload& workload, const Options& options, const Server& server,
                         Mix mix, int round, Report& report) {
  const std::string verb = mts::net::to_string(mix);
  const auto lo = loadgen_options(workload, options, mix, workload.load(mix).round_requests, round);
  mts::net::LoadReport lr;
  {
    Span call("net.run_loadgen", "verb=" + verb + " round=" + std::to_string(round));
    const ServingAffinity pin;
    lr = mts::net::run_loadgen(kHost, server.port(), lo);
  }
  Tally& tally = report.tally("serve." + verb);
  tally.attempted += lo.requests;
  tally.failed += lr.errors + lr.dropped + (lo.requests - lr.sent);
  tally.add_detail("sent", lr.sent);
  tally.add_detail("ok", lr.ok);
  tally.add_detail("err", lr.errors);
  tally.add_detail("dropped", lr.dropped);
  return VerbRound{lr.qps, lr.p50_s * 1e3, lr.p99_s * 1e3};
}

void measure_engine(const Workload& workload, const Options& options, const City& city,
                    const E2e& e2e, Report& report) {
  const mts::net::Snapshot& snapshot = *city.snapshot;
  mts::net::QueryEngine engine(snapshot, mts::WorkBudget{});
  std::vector<mts::net::Request> route_requests;
  std::vector<mts::net::Response> route_responses;
  for (Mix mix : kServedMixes) {
    const std::string verb = mts::net::to_string(mix);
    const auto lo =
        loadgen_options(workload, options, mix, workload.load(mix).engine_requests, 0);
    const auto requests = mts::net::synthesize_requests(lo, snapshot.num_nodes());
    Tally& tally = report.tally("engine." + verb);
    std::vector<double> us;
    us.reserve(requests.size());
    for (const auto& request : requests) {
      mts::net::Response response;
      {
        Span call("net.QueryEngine::handle", "request=" + verb + "/" + std::to_string(request.id));
        const auto start = std::chrono::steady_clock::now();
        response = engine.handle(request);
        us.push_back(seconds_since(start) * 1e6);
      }
      ++tally.attempted;
      if (!response.ok) ++tally.failed;
      if (mix == Mix::Route) {
        route_requests.push_back(request);
        route_responses.push_back(std::move(response));
      }
    }
    const double p50 = quantile(us, 0.5);
    report.metric("net.engine." + verb + "_p50_us", p50, "us");
    report.metric("net.engine." + verb + "_p99_us", quantile(us, 0.99), "us");
    if (const auto client_p50_ms = e2e.get(verb + "_p50_ms")) {
      report.metric("net.wire_overhead." + verb + "_us", *client_p50_ms * 1e3 - p50, "us");
    }
  }

  // Protocol: parse every route request line and serialize every route
  // response, in batches; the median batch gives the per-call cost.
  std::vector<std::string> lines;
  for (const auto& request : route_requests) lines.push_back(mts::net::serialize_request(request));
  std::vector<double> parse_us, serialize_us;
  std::size_t sink = 0;
  for (int batch = 0; batch < 15; ++batch) {
    auto start = std::chrono::steady_clock::now();
    {
      Span call("net.parse_request", "batch=" + std::to_string(batch));
      for (const auto& line : lines) sink += mts::net::parse_request(line).source;
    }
    parse_us.push_back(seconds_since(start) * 1e6 / static_cast<double>(lines.size()));
    start = std::chrono::steady_clock::now();
    {
      Span call("net.serialize_response", "batch=" + std::to_string(batch));
      for (const auto& response : route_responses) {
        sink += mts::net::serialize_response(response).size();
      }
    }
    serialize_us.push_back(seconds_since(start) * 1e6 /
                           static_cast<double>(route_responses.size()));
  }
  if (sink == 0) report.check_failed("protocol: empty parse/serialize output");
  report.metric("net.protocol.parse_us", median(parse_us), "us");
  report.metric("net.protocol.serialize_us", median(serialize_us), "us");
}

}  // namespace perfbench

// Shared declarations of the benchmark driver: workload definitions, run
// options, the set-up city, and the measured sections (set-up, the
// paper-table grid, routed serving, the socket-free engine).
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/models.hpp"
#include "citygen/spec.hpp"
#include "exp/scenario.hpp"
#include "net/loadgen.hpp"
#include "net/snapshot.hpp"
#include "osm/road_network.hpp"
#include "report.hpp"

namespace perfbench {

/// The four served verbs, in the order their load phases run.
inline constexpr mts::net::Mix kServedMixes[] = {mts::net::Mix::Route, mts::net::Mix::Table,
                                                 mts::net::Mix::Kalt, mts::net::Mix::Attack};

/// Requests per closed-loop round, per answer-check sample, and per
/// single-thread engine sample, by verb.
struct VerbLoad {
  std::uint64_t round_requests = 0;
  std::uint64_t check_requests = 0;
  std::uint64_t engine_requests = 0;  // single-thread QueryEngine::handle sample
  std::size_t window = 4;             // in-flight requests on the connection
};

/// Shared by every workload: the paper's city scale and p* rank, the
/// scenarios whose cuts check_grid re-derives, and the request shapes.
inline constexpr double kScale = 1.0;
inline constexpr int kPathRank = 100;
inline constexpr std::size_t kCheckedScenarios = 2;
inline constexpr std::uint32_t kKaltK = 4;
inline constexpr std::uint32_t kAttackRank = 8;
inline constexpr std::uint32_t kTableDim = 4;
/// Closed-loop rounds of each verb after every grid round, interleaved by
/// verb, so each served figure is the median of many short rounds.
inline constexpr int kServingRoundsPerCycle = 4;

struct Workload {
  std::string name;
  mts::citygen::City city = mts::citygen::City::Boston;
  mts::attack::WeightType grid_weight = mts::attack::WeightType::Length;
  int trials = 0;  // scenarios per grid round
  VerbLoad route, table, kalt, attack;

  [[nodiscard]] const VerbLoad& load(mts::net::Mix mix) const;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

struct Options {
  std::uint64_t seed = 1;
  std::string work_dir = ".";
  std::size_t threads = 1;        // grid thread pool
  std::size_t server_workers = 1;  // routed queue workers
};

/// The generated city as the benchmark's sections consume it: the OSM file
/// on disk, the network the grid attacks, and the daemon's snapshot.
struct City {
  std::string osm_path;
  std::optional<mts::osm::RoadNetwork> network;
  std::unique_ptr<mts::net::Snapshot> snapshot;
  double setup_s = 0.0;  // median set-up time over the repetitions
};

/// Generation seed of every city: the city is fixed per workload, like the
/// paper's real extracts, and --seed draws the scenarios and requests.
inline constexpr std::uint64_t kCitySeed = 7;

/// Sets the city up `reps` times and keeps the last.  Records setup_s and
/// the citygen/osm/net set-up layers (medians over the repetitions).
City set_up_city(const Workload& workload, const Options& options, int reps, Report& report);

/// End-to-end figures of the timed sections, kept so a traced pass can be
/// compared against the untraced one.
struct E2e {
  std::vector<std::pair<std::string, double>> values;
  void set(const std::string& name, double value);
  [[nodiscard]] std::optional<double> get(const std::string& name) const;
};

/// One grid round: scenario sampling plus the 12-cell table on those
/// scenarios.  Round r draws its scenarios and attack streams from (seed, r),
/// so the rounds of one run cover different scenarios.
struct GridRound {
  double grid_s = 0.0;
  double scenario_s = 0.0;
  double cells_s = 0.0;
  std::uint64_t attack_seed = 0;  // RunConfig::seed of the round
  std::vector<mts::exp::Scenario> scenarios;
  double run_ms[4] = {};  // mean ms per attack, by algorithm; < 0 when none ran
};
GridRound run_grid_round(const Workload& workload, const Options& options, const City& city,
                         int round, Report& report);
/// Metric name of GridRound::run_ms[algorithm_index].
std::string attack_run_metric(std::size_t algorithm_index);

/// Re-runs attack::run_attack on the round's first scenarios and checks
/// every cut with the reference shortest paths (outside any timed region).
void check_grid(const Workload& workload, const City& city, const GridRound& round,
                Report& report);

/// The routed daemon serving the city's snapshot in this process on an
/// ephemeral loopback port, for the lifetime of the object.
class Server {
 public:
  Server(const City& city, const Options& options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  [[nodiscard]] std::uint16_t port() const;
  /// Why serve() stopped early, or empty while it runs normally.
  [[nodiscard]] std::string failure() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Serves the first requests of every verb's round-0 stream and checks each
/// answer against the reference (outside any timed region).
void check_answers(const Workload& workload, const Options& options, const City& city,
                   const Server& server, Report& report);

/// One closed-loop net::run_loadgen round of one verb; round r draws its
/// requests from (seed, verb, r).
struct VerbRound {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};
VerbRound run_verb_round(const Workload& workload, const Options& options, const Server& server,
                         mts::net::Mix mix, int round, Report& report);

/// Single-thread, socket-free QueryEngine::handle timings per verb, and
/// protocol parse/serialize timings.  Records net.engine.* and
/// net.protocol.*; client p50s from `e2e` give net.wire_overhead.*.
void measure_engine(const Workload& workload, const Options& options, const City& city,
                    const E2e& e2e, Report& report);

/// Answer checks of one served verb against the reference (used by
/// check_answers and by the checker self-tests).
struct ServedAnswer {
  mts::net::Request request;
  mts::net::Response response;
};
/// Returns an empty string when the answer is right, else why not.
std::string check_served_answer(const mts::DiGraph& graph, std::span<const double> weights,
                                const ServedAnswer& answer);

/// Checks that removing `cut` makes `p_star` the exclusive shortest
/// source->target path under `weights`; empty string when it does.
std::string check_cut(const mts::DiGraph& graph, std::span<const double> weights,
                      const mts::Path& p_star, mts::NodeId source, mts::NodeId target,
                      const std::vector<mts::EdgeId>& cut);

/// The checker's own tests: a correct answer of each kind is accepted and
/// an empty cut, an off-by-one distance and a non-monotone kalt answer are
/// rejected.  Failures are reported as check failures.
void self_test_checks(Report& report);

}  // namespace perfbench

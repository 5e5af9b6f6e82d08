// Grid section: the paper's Table II-VIII grid (4 algorithms x 3 cost
// models over sampled scenarios) through exp::sample_scenarios and
// exp::run_city_table_on, timed from outside, plus the cut checks.
#include <chrono>
#include <cmath>
#include <memory>

#include "attack/algorithms.hpp"
#include "attack/verify.hpp"
#include "bench.hpp"
#include "core/rng.hpp"
#include "exp/table_runner.hpp"
#include "graph/ch_assets.hpp"
#include "reference.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using mts::attack::kAllAlgorithms;
using mts::attack::kAllCostTypes;

// Stream tags of the grid's draws, apart from the serving streams.
constexpr std::uint64_t kScenarioStream = 0x67726964ULL;  // "grid"
constexpr std::uint64_t kAttackStream = 0x63656c6cULL;    // "cell"

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Metric-name form of an algorithm, as the CLI spells it.
const char* algorithm_slug(mts::attack::Algorithm algorithm) {
  switch (algorithm) {
    case mts::attack::Algorithm::LpPathCover: return "lp-pathcover";
    case mts::attack::Algorithm::GreedyPathCover: return "greedy-pathcover";
    case mts::attack::Algorithm::GreedyEdge: return "greedy-edge";
    case mts::attack::Algorithm::GreedyEig: return "greedy-eig";
  }
  return "unknown";
}

}  // namespace

std::string attack_run_metric(std::size_t algorithm_index) {
  return std::string("attack.run_ms.") + algorithm_slug(kAllAlgorithms[algorithm_index]);
}

GridRound run_grid_round(const Workload& workload, const Options& options, const City& city,
                         int round, Report& report) {
  const mts::osm::RoadNetwork& network = *city.network;
  const auto weights = mts::attack::make_weights(network, workload.grid_weight);
  const auto r = static_cast<std::uint64_t>(round);
  mts::exp::ScenarioOptions scenario_options;
  scenario_options.path_rank = kPathRank;
  mts::exp::RunConfig config;
  config.city = workload.city;
  config.scale = kScale;
  config.weight = workload.grid_weight;
  config.trials = workload.trials;
  config.path_rank = kPathRank;
  config.seed = mts::derive_seed(options.seed, {kAttackStream, r});

  GridRound out;
  out.attack_seed = config.seed;
  Span round_span("bench.grid_round", "round=" + std::to_string(round));
  const auto start = std::chrono::steady_clock::now();
  {
    Span call("exp.sample_scenarios");
    out.scenarios = mts::exp::sample_scenarios(network, weights, workload.trials,
                                               mts::derive_seed(options.seed, {kScenarioStream, r}),
                                               scenario_options);
  }
  out.scenario_s = seconds_since(start);
  const auto cells_start = std::chrono::steady_clock::now();
  mts::exp::CityTableResult result;
  {
    Span call("exp.run_city_table_on");
    result = mts::exp::run_city_table_on(network, out.scenarios, config);
  }
  out.cells_s = seconds_since(cells_start);
  out.grid_s = seconds_since(start);

  Tally& scenario_tally = report.tally("grid.scenarios");
  scenario_tally.attempted += static_cast<std::uint64_t>(workload.trials);
  scenario_tally.failed += static_cast<std::uint64_t>(workload.trials) - out.scenarios.size();
  Tally& cell_tally = report.tally("grid.cells");
  for (std::size_t ai = 0; ai < std::size(kAllAlgorithms); ++ai) {
    double seconds = 0.0;
    int n = 0;
    for (std::size_t ci = 0; ci < std::size(kAllCostTypes); ++ci) {
      const mts::exp::CellStats& cell = result.cells[ai][ci];
      cell_tally.attempted += out.scenarios.size();
      cell_tally.failed += static_cast<std::uint64_t>(cell.attack_failures) +
                           static_cast<std::uint64_t>(cell.verification_failures);
      cell_tally.add_detail("non_success",
                            static_cast<std::uint64_t>(cell.attack_failures - cell.quarantined));
      cell_tally.add_detail("verification_failures",
                            static_cast<std::uint64_t>(cell.verification_failures));
      cell_tally.add_detail("quarantined", static_cast<std::uint64_t>(cell.quarantined));
      cell_tally.add_detail("lp_fallbacks", static_cast<std::uint64_t>(cell.fallbacks));
      seconds += cell.runtime.mean() * cell.n;
      n += cell.n;
    }
    out.run_ms[ai] = n > 0 ? seconds / n * 1e3 : -1.0;
  }
  return out;
}

std::string check_cut(const mts::DiGraph& graph, std::span<const double> weights,
                      const mts::Path& p_star, mts::NodeId source, mts::NodeId target,
                      const std::vector<mts::EdgeId>& cut) {
  std::vector<std::uint8_t> banned(graph.num_edges(), 0);
  for (mts::EdgeId e : cut) banned[e.value()] = 1;
  double length = 0.0;
  for (mts::EdgeId e : p_star.edges) {
    if (banned[e.value()] != 0) return "the cut removes an edge of p*";
    length += weights[e.value()];
  }
  const double tolerance = 1e-9 * std::max(1.0, length);
  const double cut_dist = reference_distance(graph, weights, source, target, banned);
  if (std::abs(cut_dist - length) > tolerance) {
    return "after the cut the shortest distance is " + std::to_string(cut_dist) +
           ", not len(p*) = " + std::to_string(length);
  }
  for (mts::EdgeId e : p_star.edges) {
    banned[e.value()] = 1;
    const double without = reference_distance(graph, weights, source, target, banned);
    banned[e.value()] = 0;
    if (!(without > length + tolerance)) {
      return "banning p* edge " + std::to_string(e.value()) + " leaves distance " +
             std::to_string(without) + " <= len(p*) = " + std::to_string(length) +
             ": p* is not the exclusive shortest path";
    }
  }
  return {};
}

void check_grid(const Workload& workload, const City& city, const GridRound& round,
                Report& report) {
  const std::vector<mts::exp::Scenario>& scenarios = round.scenarios;
  const mts::osm::RoadNetwork& network = *city.network;
  const mts::DiGraph& graph = network.graph();
  const auto weights = mts::attack::make_weights(network, workload.grid_weight);
  // The same hierarchy the grid's oracle and verifier used (none when
  // MTS_CH=0), so the re-run attacks are the grid's attacks.
  std::unique_ptr<mts::ChAssets> assets;
  if (mts::ch_enabled()) {
    assets = std::make_unique<mts::ChAssets>(mts::ChAssets::build(graph, weights));
  }
  Tally& tally = report.tally("grid.checks");
  std::vector<double> verify_ms;
  const std::size_t count = std::min(scenarios.size(), kCheckedScenarios);
  if (count == 0) report.check_failed("grid: no scenario to check");
  for (std::size_t si = 0; si < count; ++si) {
    const mts::exp::Scenario& scenario = scenarios[si];
    for (std::size_t ci = 0; ci < std::size(kAllCostTypes); ++ci) {
      const auto costs = mts::attack::make_costs(network, kAllCostTypes[ci]);
      mts::attack::ForcePathCutProblem problem;
      problem.graph = &graph;
      problem.weights = weights;
      problem.costs = costs;
      problem.source = scenario.source;
      problem.target = scenario.target;
      problem.p_star = scenario.p_star;
      problem.seed_paths = scenario.prefix;
      problem.ch = assets.get();
      std::vector<mts::attack::AttackResult> results;
      for (std::size_t ai = 0; ai < std::size(kAllAlgorithms); ++ai) {
        const std::string cell = "cell=" + std::to_string(scenario.trial) + "/" +
                                 mts::attack::to_string(kAllCostTypes[ci]) + "/" +
                                 mts::attack::to_string(kAllAlgorithms[ai]);
        mts::attack::AttackOptions attack_options;
        // The stream exp::run_city_table_on gives this cell.
        attack_options.rng_seed = mts::derive_seed(round.attack_seed, {scenario.trial, ci, ai});
        {
          Span call("attack.run_attack", cell);
          results.push_back(mts::attack::run_attack(kAllAlgorithms[ai], problem, attack_options));
        }
        const mts::attack::AttackResult& result = results.back();
        ++tally.attempted;
        if (result.status != mts::attack::AttackStatus::Success) {
          ++tally.failed;
          report.check_failed(cell + ": status " + mts::attack::to_string(result.status));
          continue;
        }
        const auto verify_start = std::chrono::steady_clock::now();
        {
          Span call("attack.verify_attack", cell);
          (void)mts::attack::verify_attack(problem, result.removed_edges);
        }
        verify_ms.push_back(seconds_since(verify_start) * 1e3);
        Span call("bench.check_cut", cell);
        if (result.removed_edges.empty() && !scenario.prefix.empty()) {
          report.check_failed(cell + ": empty cut although shorter paths exist");
        }
        const std::string why =
            check_cut(graph, weights, scenario.p_star, scenario.source, scenario.target,
                      result.removed_edges);
        if (!why.empty()) report.check_failed(cell + ": " + why);
      }
      // The LP relaxation bounds every cover of the constraint paths, so no
      // algorithm's cut may cost less than LP-PathCover's certified bound.
      const double bound = results.front().lp_lower_bound;
      for (std::size_t ai = 0; ai < results.size(); ++ai) {
        if (results[ai].status != mts::attack::AttackStatus::Success) continue;
        if (bound > results[ai].total_cost * (1.0 + 1e-9) + 1e-9) {
          report.check_failed("scenario " + std::to_string(scenario.trial) + "/" +
                              mts::attack::to_string(kAllCostTypes[ci]) + ": LP bound " +
                              std::to_string(bound) + " exceeds " +
                              mts::attack::to_string(kAllAlgorithms[ai]) + " cost " +
                              std::to_string(results[ai].total_cost));
        }
      }
    }
  }
  if (!verify_ms.empty()) report.metric("attack.verify_ms", median(verify_ms), "ms");
}

}  // namespace perfbench

// Microbenchmarks for the graph substrate: Dijkstra, Yen, centralities,
// CH/CCH and SCC on the synthetic city networks.
#include <benchmark/benchmark.h>

#include <map>

#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "core/rng.hpp"
#include "graph/betweenness.hpp"
#include "graph/cch.hpp"
#include "graph/connectivity.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "graph/dijkstra.hpp"
#include "graph/eigen.hpp"
#include "graph/nested_dissection.hpp"
#include "graph/yen.hpp"

namespace {

using namespace mts;

struct CityFixture {
  osm::RoadNetwork network;
  std::vector<double> weights;
  NodeId source;
  NodeId target;
};

const CityFixture& fixture(citygen::City city) {
  static std::map<citygen::City, CityFixture> cache;
  auto it = cache.find(city);
  if (it == cache.end()) {
    CityFixture f{citygen::generate_city(city, 0.5, 7), {}, NodeId(0), NodeId(0)};
    f.weights = attack::make_weights(f.network, attack::WeightType::Time);
    const auto intersections = f.network.intersection_nodes();
    Rng rng(3);
    f.source = intersections[rng.uniform_index(intersections.size())];
    f.target = f.network.pois().front().node;
    it = cache.emplace(city, std::move(f)).first;
  }
  return it->second;
}

void BM_DijkstraFullSssp(benchmark::State& state, citygen::City city) {
  const auto& f = fixture(city);
  for (auto _ : state) {
    auto tree = dijkstra(f.network.graph(), f.weights, f.source);
    benchmark::DoNotOptimize(tree.dist.data());
  }
  state.SetLabel(std::to_string(f.network.graph().num_nodes()) + " nodes");
}

void BM_DijkstraEarlyExit(benchmark::State& state, citygen::City city) {
  const auto& f = fixture(city);
  for (auto _ : state) {
    auto path = shortest_path(f.network.graph(), f.weights, f.source, f.target);
    benchmark::DoNotOptimize(path);
  }
}

void BM_YenKsp(benchmark::State& state, citygen::City city) {
  const auto& f = fixture(city);
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto paths = yen_ksp(f.network.graph(), f.weights, f.source, f.target, k);
    benchmark::DoNotOptimize(paths);
  }
}

void BM_EigenvectorCentrality(benchmark::State& state, citygen::City city) {
  const auto& f = fixture(city);
  for (auto _ : state) {
    auto result = eigenvector_centrality(f.network.graph());
    benchmark::DoNotOptimize(result.centrality.data());
  }
}

void BM_EdgeBetweennessSampled(benchmark::State& state, citygen::City city) {
  const auto& f = fixture(city);
  BetweennessOptions options;
  options.pivots = 32;
  for (auto _ : state) {
    auto scores = edge_betweenness(f.network.graph(), f.weights, options);
    benchmark::DoNotOptimize(scores.data());
  }
}

/// LENGTH is the slower build (its witness searches settle more) and the
/// one a paper-table grid repeats for every table it runs.
void BM_ChBuild(benchmark::State& state, citygen::City city, attack::WeightType weight) {
  const auto& f = fixture(city);
  const auto weights = attack::make_weights(f.network, weight);
  for (auto _ : state) {
    auto ch = ContractionHierarchy::build(f.network.graph(), weights);
    benchmark::DoNotOptimize(ch.num_shortcuts());
  }
}

void BM_ChQuery(benchmark::State& state, citygen::City city) {
  const auto& f = fixture(city);
  static std::map<citygen::City, ContractionHierarchy> cache;
  auto it = cache.find(city);
  if (it == cache.end()) {
    it = cache.emplace(city, ContractionHierarchy::build(f.network.graph(), f.weights)).first;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(it->second.distance(f.source, f.target));
  }
}

void BM_CchBuild(benchmark::State& state, citygen::City city) {
  const auto& g = fixture(city).network.graph();
  for (auto _ : state) {
    auto topo = CchTopology::build(g, nested_dissection_order(g));
    benchmark::DoNotOptimize(topo.num_triangles());
  }
}

/// The attack loop's step: re-customize to a fresh 8-edge cut, then back.
void BM_CchRecustomize8(benchmark::State& state, citygen::City city) {
  const auto& f = fixture(city);
  const auto& g = f.network.graph();
  const auto topo = CchTopology::build(g, nested_dissection_order(g));
  CchMetric metric(topo, f.weights);
  Rng rng(17);
  EdgeFilter filter(g.num_edges());
  for (auto _ : state) {
    filter.clear();
    for (int i = 0; i < 8; ++i) {
      filter.remove(EdgeId(static_cast<std::uint32_t>(rng.uniform_index(g.num_edges()))));
    }
    metric.recustomize(&filter);
    metric.recustomize(nullptr);
  }
}

void BM_Scc(benchmark::State& state, citygen::City city) {
  const auto& f = fixture(city);
  for (auto _ : state) {
    auto scc = strongly_connected_components(f.network.graph());
    benchmark::DoNotOptimize(scc.component.data());
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_DijkstraFullSssp, boston, citygen::City::Boston);
BENCHMARK_CAPTURE(BM_DijkstraFullSssp, chicago, citygen::City::Chicago);
BENCHMARK_CAPTURE(BM_DijkstraEarlyExit, boston, citygen::City::Boston);
BENCHMARK_CAPTURE(BM_DijkstraEarlyExit, chicago, citygen::City::Chicago);
BENCHMARK_CAPTURE(BM_YenKsp, boston, citygen::City::Boston)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_YenKsp, chicago, citygen::City::Chicago)->Arg(10)->Arg(50)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EigenvectorCentrality, chicago, citygen::City::Chicago);
BENCHMARK_CAPTURE(BM_EdgeBetweennessSampled, chicago, citygen::City::Chicago)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChBuild, chicago, citygen::City::Chicago, attack::WeightType::Time)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChBuild, chicago_length, citygen::City::Chicago, attack::WeightType::Length)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChBuild, losangeles_length, citygen::City::LosAngeles,
                  attack::WeightType::Length)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ChQuery, chicago, citygen::City::Chicago);
BENCHMARK_CAPTURE(BM_CchBuild, chicago, citygen::City::Chicago)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CchRecustomize8, chicago, citygen::City::Chicago);
BENCHMARK_CAPTURE(BM_Scc, losangeles, citygen::City::LosAngeles);

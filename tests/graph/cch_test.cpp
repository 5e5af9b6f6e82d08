#include "graph/cch.hpp"

#include <gtest/gtest.h>

#include <string>

#include "attack/models.hpp"
#include "citygen/generate.hpp"
#include "graph/dijkstra.hpp"
#include "graph/nested_dissection.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

TEST(Cch, UnmaskedDistancesMatchDijkstra) {
  test::Diamond d;
  const auto topo = CchTopology::build(d.wg.g, nested_dissection_order(d.wg.g));
  CchMetric metric(topo, d.wg.weights);
  EXPECT_DOUBLE_EQ(metric.distance(d.s, d.t), 2.0);
  EXPECT_DOUBLE_EQ(metric.distance(d.s, d.a), 1.0);
  EXPECT_EQ(metric.distance(d.t, d.s), kInfiniteDistance);
  EXPECT_DOUBLE_EQ(metric.distance(d.s, d.s), 0.0);
}

TEST(Cch, RecustomizeTracksMaskAndRestores) {
  test::Diamond d;
  const auto topo = CchTopology::build(d.wg.g, nested_dissection_order(d.wg.g));
  CchMetric metric(topo, d.wg.weights);

  EdgeFilter filter(d.wg.g.num_edges());
  filter.remove(d.sa);
  metric.recustomize(&filter);
  const double masked = shortest_distance(d.wg.g, d.wg.weights, d.s, d.t, &filter);
  EXPECT_DOUBLE_EQ(metric.distance(d.s, d.t), masked);

  // Diffing back to the empty mask must restore the original distances.
  metric.recustomize(nullptr);
  EXPECT_DOUBLE_EQ(metric.distance(d.s, d.t), 2.0);
}

TEST(Cch, ParallelEdgesSurviveSelectiveRemoval) {
  DiGraph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  const EdgeId slow_ab = g.add_edge(a, b);
  const EdgeId cheap_ab = g.add_edge(a, b);  // parallel, cheaper
  g.add_edge(b, c);
  g.finalize();
  const std::vector<double> w = {3.0, 1.0, 2.0};
  const auto topo = CchTopology::build(g, nested_dissection_order(g));
  CchMetric metric(topo, w);
  EXPECT_DOUBLE_EQ(metric.distance(a, c), 3.0);

  // Removing the cheap copy falls back to the slow one...
  EdgeFilter filter(g.num_edges());
  filter.remove(cheap_ab);
  metric.recustomize(&filter);
  EXPECT_DOUBLE_EQ(metric.distance(a, c), 5.0);

  // ...and removing both parallel edges disconnects the pair.
  filter.remove(slow_ab);
  metric.recustomize(&filter);
  EXPECT_EQ(metric.distance(a, c), kInfiniteDistance);
}

TEST(Cch, BoundsToTargetMatchesMaskedReverseDistances) {
  Rng rng(5);
  auto wg = test::make_random_graph(30, 100, rng);
  const auto topo = CchTopology::build(wg.g, nested_dissection_order(wg.g));
  CchMetric metric(topo, wg.weights);

  EdgeFilter filter(wg.g.num_edges());
  for (int i = 0; i < 8; ++i) {
    filter.remove(EdgeId(static_cast<std::uint32_t>(rng.uniform_index(wg.g.num_edges()))));
  }
  metric.recustomize(&filter);

  const NodeId target(29);
  SearchSpace bounds;
  metric.bounds_to_target(target, bounds);
  for (NodeId n : wg.g.nodes()) {
    const double expected = shortest_distance(wg.g, wg.weights, n, target, &filter);
    const double got = bounds.reached(n) ? bounds.dist(n) : kInfiniteDistance;
    if (expected == kInfiniteDistance) {
      EXPECT_EQ(got, kInfiniteDistance) << "node " << n.value();
    } else {
      EXPECT_NEAR(got, expected, 1e-9 * (1.0 + expected)) << "node " << n.value();
    }
  }
}

TEST(Cch, RepeatedRecustomizationsOnCityNetwork) {
  // The attack-loop shape: one metric object, many candidate masks, each
  // re-customized by diffing against the previous mask.
  const auto network = citygen::generate_city(citygen::City::Boston, 0.2, 19);
  const auto& g = network.graph();
  const auto weights = attack::make_weights(network, attack::WeightType::Time);
  const auto topo = CchTopology::build(g, nested_dissection_order(g));
  CchMetric metric(topo, weights);

  Rng rng(23);
  EdgeFilter filter(g.num_edges());
  for (int round = 0; round < 6; ++round) {
    // Mutate the mask incrementally: drop a few edges, restore a few.
    for (int i = 0; i < 5; ++i) {
      filter.remove(EdgeId(static_cast<std::uint32_t>(rng.uniform_index(g.num_edges()))));
    }
    if (round % 2 == 1) {
      const auto removed = filter.removed_edges();
      filter.restore(removed[rng.uniform_index(removed.size())]);
    }
    metric.recustomize(&filter);
    for (int trial = 0; trial < 4; ++trial) {
      const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
      const NodeId t(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
      const double expected = shortest_distance(g, weights, s, t, &filter);
      const double got = metric.distance(s, t);
      if (expected == kInfiniteDistance) {
        EXPECT_EQ(got, kInfiniteDistance) << "round " << round;
      } else {
        EXPECT_NEAR(got, expected, 1e-9 * (1.0 + expected)) << "round " << round;
      }
    }
  }
}

TEST(Cch, MaskedQueriesMatchFilteredDijkstraOnEveryArchetype) {
  for (const citygen::City city : citygen::kAllCities) {
    const auto network = citygen::generate_city(city, 0.3, 31);
    const auto& base = network.graph();
    const auto base_weights = attack::make_weights(network, attack::WeightType::Length);

    // The city plus what its generator rarely emits: parallel twins with
    // another weight, and self loops.
    Rng rng(37);
    DiGraph g;
    for (NodeId v : base.nodes()) g.add_node(base.x(v), base.y(v));
    std::vector<double> weights;
    for (EdgeId e : base.edges()) {
      g.add_edge(base.edge_from(e), base.edge_to(e));
      weights.push_back(base_weights[e.value()]);
      if (rng.uniform() < 0.05) {
        g.add_edge(base.edge_from(e), base.edge_to(e));
        weights.push_back(base_weights[e.value()] * rng.uniform(0.5, 2.0));
      }
      if (rng.uniform() < 0.02) {
        g.add_edge(base.edge_from(e), base.edge_from(e));
        weights.push_back(rng.uniform(0.0, 10.0));
      }
    }
    g.finalize();
    const std::string name = citygen::to_string(city);

    const auto topo = CchTopology::build(g, nested_dissection_order(g));
    CchMetric metric(topo, weights);
    EdgeFilter filter(g.num_edges());
    SearchSpace bounds;
    SearchSpace reference;
    std::size_t disconnected = 0;
    for (int round = 0; round < 6; ++round) {
      // A fresh random mask each round, diffed against the last one, plus
      // every in-edge of one node: that node becomes unreachable.
      filter.clear();
      for (EdgeId e : g.edges()) {
        if (rng.uniform() < 0.04 * round) filter.remove(e);
      }
      const NodeId isolated(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
      for (EdgeId e : g.in_edges(isolated)) filter.remove(e);
      metric.recustomize(&filter);

      const NodeId target(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
      metric.bounds_to_target(target, bounds);
      DijkstraOptions options;
      options.filter = &filter;
      reverse_dijkstra(reference, g, weights, target, options);
      for (NodeId v : g.nodes()) {
        const double expected = reference.reached(v) ? reference.dist(v) : kInfiniteDistance;
        const double got = bounds.reached(v) ? bounds.dist(v) : kInfiniteDistance;
        if (expected == kInfiniteDistance) {
          ++disconnected;
          ASSERT_EQ(got, kInfiniteDistance) << name << " round " << round << " node " << v.value();
        } else {
          ASSERT_NEAR(got, expected, 1e-9 * (1.0 + expected))
              << name << " round " << round << " node " << v.value();
        }
      }

      for (int trial = 0; trial < 12; ++trial) {
        const NodeId s(static_cast<std::uint32_t>(rng.uniform_index(g.num_nodes())));
        const NodeId t = trial == 0 ? isolated
                                    : NodeId(static_cast<std::uint32_t>(
                                          rng.uniform_index(g.num_nodes())));
        const double expected = shortest_distance(g, weights, s, t, &filter);
        const double got = metric.distance(s, t);
        if (expected == kInfiniteDistance) {
          ASSERT_EQ(got, kInfiniteDistance) << name << " " << s.value() << "->" << t.value();
        } else {
          ASSERT_NEAR(got, expected, 1e-9 * (1.0 + expected))
              << name << " " << s.value() << "->" << t.value();
        }
      }
    }
    EXPECT_GT(disconnected, 0U) << name;
  }
}

}  // namespace
}  // namespace mts

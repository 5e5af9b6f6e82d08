#include "graph/nested_dissection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "citygen/generate.hpp"
#include "graph/cch.hpp"
#include "test_util.hpp"

namespace mts {
namespace {

void expect_permutation(const std::vector<std::uint32_t>& rank) {
  std::vector<std::uint32_t> sorted = rank;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
}

/// Connected components of the subgraph induced by `nodes` (undirected).
std::vector<std::vector<std::uint32_t>> components(const DiGraph& g,
                                                   const std::vector<std::uint32_t>& nodes) {
  std::vector<std::uint8_t> member(g.num_nodes(), 0);
  for (const std::uint32_t v : nodes) member[v] = 1;
  std::vector<std::vector<std::uint32_t>> parts;
  for (const std::uint32_t start : nodes) {
    if (member[start] != 1) continue;
    member[start] = 2;
    std::vector<std::uint32_t> part = {start};
    for (std::size_t head = 0; head < part.size(); ++head) {
      const NodeId v(part[head]);
      auto visit = [&](NodeId w) {
        if (member[w.value()] != 1) return;
        member[w.value()] = 2;
        part.push_back(w.value());
      };
      for (EdgeId e : g.out_edges(v)) visit(g.edge_to(e));
      for (EdgeId e : g.in_edges(v)) visit(g.edge_from(e));
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

/// True when `nodes` hold one contiguous rank range.
bool contiguous(const std::vector<std::uint32_t>& nodes, const std::vector<std::uint32_t>& rank) {
  const auto by_rank = [&](std::uint32_t a, std::uint32_t b) { return rank[a] < rank[b]; };
  const auto [lo, hi] = std::minmax_element(nodes.begin(), nodes.end(), by_rank);
  return rank[*hi] - rank[*lo] + 1 == nodes.size();
}

/// Replays the dissection top-down.  A cell holds one contiguous rank
/// range; it sheds its highest-ranked nodes until the rest falls apart
/// into pieces that each hold a contiguous rank range again (or one node
/// is left).  The shed nodes are the cell's separator and must number at
/// most `slack` times sqrt(cell size).
void expect_dissection(const DiGraph& g, const std::vector<std::uint32_t>& rank,
                       std::vector<std::uint32_t> cell, double slack) {
  if (cell.size() <= 1) return;
  std::sort(cell.begin(), cell.end(),
            [&](std::uint32_t a, std::uint32_t b) { return rank[a] < rank[b]; });
  for (std::size_t separator = 0; separator < cell.size(); ++separator) {
    const std::vector<std::uint32_t> rest(cell.begin(), cell.end() - separator);
    auto parts = components(g, rest);
    if (rest.size() > 1 &&
        (parts.size() < 2 ||
         !std::all_of(parts.begin(), parts.end(),
                      [&](const std::vector<std::uint32_t>& p) { return contiguous(p, rank); }))) {
      continue;
    }
    EXPECT_LE(static_cast<double>(separator), slack * std::sqrt(cell.size()))
        << "separator of a " << cell.size() << "-node cell";
    for (auto& part : parts) expect_dissection(g, rank, std::move(part), slack);
    return;
  }
}

TEST(NestedDissection, OrderIsAPermutation) {
  Rng rng(3);
  const auto random = test::make_random_graph(60, 150, rng);
  expect_permutation(nested_dissection_order(random.g));
  expect_permutation(nested_dissection_order(test::make_grid(7, 9).g));

  DiGraph empty;
  empty.finalize();
  EXPECT_TRUE(nested_dissection_order(empty).empty());

  // Isolated nodes, a self loop, parallel and antiparallel edges, and every
  // node at the same position.
  DiGraph odd;
  for (int i = 0; i < 6; ++i) odd.add_node();
  odd.add_edge(NodeId(0), NodeId(0));
  odd.add_edge(NodeId(0), NodeId(1));
  odd.add_edge(NodeId(0), NodeId(1));
  odd.add_edge(NodeId(1), NodeId(0));
  odd.add_edge(NodeId(3), NodeId(4));
  odd.finalize();
  expect_permutation(nested_dissection_order(odd));
}

TEST(NestedDissection, DependsOnTheGraphAlone) {
  const auto network = citygen::generate_city(citygen::City::Chicago, 0.3, 4);
  const auto first = nested_dissection_order(network.graph());
  expect_permutation(first);
  EXPECT_EQ(nested_dissection_order(network.graph()), first);

  // The same topology and positions regenerated from scratch order alike.
  const auto again = citygen::generate_city(citygen::City::Chicago, 0.3, 4);
  EXPECT_EQ(nested_dissection_order(again.graph()), first);
}

TEST(NestedDissection, SeparatorsDisconnectTheirCellsOnALattice) {
  const auto grid = test::make_grid(16, 16);
  const auto rank = nested_dissection_order(grid.g);
  std::vector<std::uint32_t> all(grid.g.num_nodes());
  std::iota(all.begin(), all.end(), 0U);
  expect_dissection(grid.g, rank, all, 1.5);

  // The top separator of a 16x16 lattice is one row or column.
  std::vector<std::uint32_t> by_rank(all);
  std::sort(by_rank.begin(), by_rank.end(),
            [&](std::uint32_t a, std::uint32_t b) { return rank[a] > rank[b]; });
  const std::vector<std::uint32_t> below(by_rank.begin() + 16, by_rank.end());
  EXPECT_EQ(components(grid.g, below).size(), 2U);
}

TEST(NestedDissection, ChicagoTopologyStaysSmall) {
  // Pins the order's quality: the CH importance order gave this city
  // 5.0M triangles, the nested-dissection order ~130k.  An order
  // regression fails here before it shows up as serving latency.
  const auto network = citygen::generate_city(citygen::City::Chicago, 1.0, 7);
  const auto topo = CchTopology::build(network.graph(), nested_dissection_order(network.graph()));
  EXPECT_LE(topo.num_triangles(), 300000U);
}

}  // namespace
}  // namespace mts

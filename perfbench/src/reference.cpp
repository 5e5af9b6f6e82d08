#include "reference.hpp"

#include <functional>
#include <queue>
#include <utility>

namespace perfbench {

namespace {

std::vector<double> run(const mts::DiGraph& graph, std::span<const double> weights,
                        mts::NodeId source, const mts::NodeId* target,
                        std::span<const std::uint8_t> banned) {
  std::vector<double> dist(graph.num_nodes(), kUnreachable);
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source.value()] = 0.0;
  heap.emplace(0.0, source.value());
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (target != nullptr && u == target->value()) break;
    for (mts::EdgeId e : graph.out_edges(mts::NodeId(u))) {
      if (!banned.empty() && banned[e.value()] != 0) continue;
      const std::uint32_t v = graph.edge_to(e).value();
      const double nd = d + weights[e.value()];
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.emplace(nd, v);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<double> reference_distances(const mts::DiGraph& graph, std::span<const double> weights,
                                        mts::NodeId source, std::span<const std::uint8_t> banned) {
  return run(graph, weights, source, nullptr, banned);
}

double reference_distance(const mts::DiGraph& graph, std::span<const double> weights,
                          mts::NodeId source, mts::NodeId target,
                          std::span<const std::uint8_t> banned) {
  return run(graph, weights, source, &target, banned)[target.value()];
}

}  // namespace perfbench

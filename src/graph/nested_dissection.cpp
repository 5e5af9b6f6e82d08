#include "graph/nested_dissection.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <span>
#include <tuple>

#include "core/error.hpp"
#include "graph/maxflow.hpp"

namespace mts {

namespace {

// Share of a cell's projection taken as each of the source and sink sets.
constexpr double kTerminalShare = 0.25;

// Projection directions: the two axes and both diagonals.
constexpr std::array<std::array<double, 2>, 4> kDirections = {{{1, 0}, {0, 1}, {1, 1}, {1, -1}}};

/// A cell to order and the lowest rank its nodes receive.  Nodes are kept
/// in ascending id order.
struct Cell {
  std::vector<std::uint32_t> nodes;
  std::uint32_t lo = 0;
};

/// A vertex separator of a connected cell and the two parts it splits.
struct Split {
  std::vector<std::uint32_t> separator;
  std::vector<std::uint32_t> first;
  std::vector<std::uint32_t> second;
};

class Dissector {
 public:
  explicit Dissector(const DiGraph& g)
      : g_(g), in_cell_(g.num_nodes(), 0), local_(g.num_nodes(), 0) {
    // Undirected simple adjacency (CSR): parallel and antiparallel edges
    // collapse, self loops drop.
    const std::size_t n = g.num_nodes();
    std::vector<std::vector<std::uint32_t>> lists(n);
    for (EdgeId e : g.edges()) {
      const std::uint32_t u = g.edge_from(e).value();
      const std::uint32_t v = g.edge_to(e).value();
      if (u == v) continue;
      lists[u].push_back(v);
      lists[v].push_back(u);
    }
    offsets_.assign(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
      std::sort(lists[v].begin(), lists[v].end());
      lists[v].erase(std::unique(lists[v].begin(), lists[v].end()), lists[v].end());
      offsets_[v + 1] = offsets_[v] + static_cast<std::uint32_t>(lists[v].size());
      neighbors_.insert(neighbors_.end(), lists[v].begin(), lists[v].end());
    }
  }

  std::vector<std::uint32_t> run() {
    const auto n = static_cast<std::uint32_t>(g_.num_nodes());
    std::vector<std::uint32_t> rank(n, 0);
    std::vector<Cell> stack;
    stack.push_back({std::vector<std::uint32_t>(n), 0});
    std::iota(stack.back().nodes.begin(), stack.back().nodes.end(), 0U);
    while (!stack.empty()) {
      Cell cell = std::move(stack.back());
      stack.pop_back();
      if (cell.nodes.empty()) continue;
      if (cell.nodes.size() == 1) {
        rank[cell.nodes.front()] = cell.lo;
        continue;
      }
      enter(cell.nodes);
      std::vector<std::vector<std::uint32_t>> parts = components(cell.nodes);
      if (parts.size() > 1) {
        std::uint32_t lo = cell.lo;
        for (auto& part : parts) {
          const auto size = static_cast<std::uint32_t>(part.size());
          stack.push_back({std::move(part), lo});
          lo += size;
        }
        continue;
      }
      Split split = separate(cell.nodes);
      std::uint32_t top = cell.lo + static_cast<std::uint32_t>(cell.nodes.size() -
                                                               split.separator.size());
      for (const std::uint32_t v : split.separator) rank[v] = top++;
      const auto first_size = static_cast<std::uint32_t>(split.first.size());
      stack.push_back({std::move(split.first), cell.lo});
      stack.push_back({std::move(split.second), cell.lo + first_size});
    }
    return rank;
  }

 private:
  /// Marks `nodes` as the current cell and records their local indices.
  void enter(const std::vector<std::uint32_t>& nodes) {
    ++epoch_;
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      in_cell_[nodes[i]] = epoch_;
      local_[nodes[i]] = i;
    }
  }

  [[nodiscard]] bool in_cell(std::uint32_t v) const { return in_cell_[v] == epoch_; }

  [[nodiscard]] std::span<const std::uint32_t> adjacent(std::uint32_t v) const {
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Connected components of the current cell, each sorted, ordered by
  /// their smallest node id.
  std::vector<std::vector<std::uint32_t>> components(const std::vector<std::uint32_t>& nodes) {
    std::vector<std::uint8_t> seen(nodes.size(), 0);
    std::vector<std::vector<std::uint32_t>> parts;
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      if (seen[i] != 0) continue;
      seen[i] = 1;
      std::vector<std::uint32_t> part = {nodes[i]};
      for (std::size_t head = 0; head < part.size(); ++head) {
        for (const std::uint32_t w : adjacent(part[head])) {
          if (!in_cell(w) || seen[local_[w]] != 0) continue;
          seen[local_[w]] = 1;
          part.push_back(w);
        }
      }
      std::sort(part.begin(), part.end());
      parts.push_back(std::move(part));
    }
    return parts;
  }

  /// Inertial flow over the current (connected, >= 2 nodes) cell: the
  /// smallest minimum vertex cut over all directions, ties to the more
  /// balanced split, then to the earlier direction.
  Split separate(const std::vector<std::uint32_t>& nodes) {
    const auto n = static_cast<std::uint32_t>(nodes.size());
    std::vector<std::pair<std::uint32_t, std::uint32_t>> links;  // local i < j
    for (std::uint32_t i = 0; i < n; ++i) {
      for (const std::uint32_t w : adjacent(nodes[i])) {
        if (in_cell(w) && local_[w] > i) links.emplace_back(i, local_[w]);
      }
    }
    const auto terminals =
        std::max<std::uint32_t>(1, static_cast<std::uint32_t>(kTerminalShare * n));
    // Larger than any cut, which is at most the number of sources.
    const double unbounded = static_cast<double>(n) + 1.0;

    Split best;
    std::size_t best_cut = n + 1;
    std::size_t best_smaller = 0;
    std::vector<std::uint32_t> by_projection(n);
    std::vector<double> projection(n);
    // First pass: terminals stay on their sides, so every part keeps at
    // least its terminal share.  A cell where some direction's sources
    // touch its sinks has no such cut for that direction; when none has
    // one (tiny or compact cells), the second pass lets terminals be cut.
    for (const bool cut_terminals : {false, true}) {
      for (const auto& [dx, dy] : kDirections) {
        for (std::uint32_t i = 0; i < n; ++i) {
          const NodeId v(nodes[i]);
          projection[i] = dx * g_.x(v) + dy * g_.y(v);
        }
        std::iota(by_projection.begin(), by_projection.end(), 0U);
        std::sort(by_projection.begin(), by_projection.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    return std::tie(projection[a], a) < std::tie(projection[b], b);
                  });

        // Node split: local i becomes in = 2i -> out = 2i+1 with capacity
        // 1; each adjacency joins out to in both ways, uncapped.
        DiGraph flow_graph;
        std::vector<double> capacity;
        for (std::uint32_t i = 0; i < 2 * n + 2; ++i) flow_graph.add_node();
        const NodeId source(2 * n);
        const NodeId sink(2 * n + 1);
        auto arc = [&](std::uint32_t from, NodeId to, double cap) {
          flow_graph.add_edge(NodeId(from), to);
          capacity.push_back(cap);
        };
        for (std::uint32_t i = 0; i < n; ++i) arc(2 * i, NodeId(2 * i + 1), 1.0);
        for (const auto& [i, j] : links) {
          arc(2 * i + 1, NodeId(2 * j), unbounded);
          arc(2 * j + 1, NodeId(2 * i), unbounded);
        }
        const std::uint32_t skip = cut_terminals ? 0 : 1;
        for (std::uint32_t r = 0; r < terminals; ++r) {
          arc(source.value(), NodeId(2 * by_projection[r] + skip), unbounded);
          arc(2 * by_projection[n - 1 - r] + 1 - skip, sink, unbounded);
        }
        flow_graph.finalize();
        const MaxFlowResult flow = max_flow(flow_graph, capacity, source, sink);
        if (flow.flow >= unbounded) continue;  // a source touches a sink

        // in reachable, out not: cut.  out reachable: source part.
        Split split;
        for (std::uint32_t i = 0; i < n; ++i) {
          if (flow.source_side[2 * i + 1] != 0) {
            split.first.push_back(nodes[i]);
          } else if (flow.source_side[2 * i] != 0) {
            split.separator.push_back(nodes[i]);
          } else {
            split.second.push_back(nodes[i]);
          }
        }
        const std::size_t smaller = std::min(split.first.size(), split.second.size());
        if (split.separator.size() < best_cut ||
            (split.separator.size() == best_cut && smaller > best_smaller)) {
          best_cut = split.separator.size();
          best_smaller = smaller;
          best = std::move(split);
        }
      }
      if (best_cut <= n) break;
    }
    return best;
  }

  const DiGraph& g_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> neighbors_;
  std::vector<std::uint32_t> in_cell_;  // epoch stamp of the current cell
  std::vector<std::uint32_t> local_;    // node -> index within the current cell
  std::uint32_t epoch_ = 0;
};

}  // namespace

std::vector<std::uint32_t> nested_dissection_order(const DiGraph& g) {
  require(g.finalized(), "nested_dissection_order: graph not finalized");
  return Dissector(g).run();
}

}  // namespace mts

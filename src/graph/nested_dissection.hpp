// Nested-dissection contraction order for the CCH (graph/cch.hpp).
//
// A CchTopology keeps every shortcut the elimination game creates, so its
// size is decided by the order alone.  An importance order tuned for one
// metric (the witness CH's) explodes on lattice cities: every node of a
// grid row sees the whole row as higher-ranked neighbors.  Nested
// dissection — cut the graph with a small vertex separator, order both
// halves recursively, then the separator above both — bounds the fill-in
// by the separator sizes, which on road networks grow like sqrt(n)
// (Dibbelt, Strasser & Wagner 2016).
//
// Separators come from inertial flow (Schild & Sommer 2015): project the
// node positions onto a few fixed directions, take the first and last
// quarter of each projection as source and sink sets, and keep the
// smallest minimum vertex cut between them (graph/maxflow.hpp over a
// node-split copy of the cell).  Only positions and undirected adjacency
// are read, never weights, so one order serves every metric of a graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace mts {

/// Contraction rank per node (a permutation of 0..n-1): every separator's
/// nodes rank above both parts it separates, disconnected parts are
/// ordered independently, and all ties break by node id, so the result is
/// a pure function of the graph's topology and node positions.  Parallel
/// edges, antiparallel pairs and self loops are read as one undirected
/// adjacency.  Requires a finalized graph.
[[nodiscard]] std::vector<std::uint32_t> nested_dissection_order(const DiGraph& g);

}  // namespace mts

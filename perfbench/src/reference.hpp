// Reference shortest paths for the answer checks.
//
// A textbook binary-heap Dijkstra over the DiGraph adjacency, written here
// so the checks share no search code with the program under test (no CH,
// no CCH, no verify_attack, no graph/dijkstra).  Banned edges are skipped,
// which is how a cut is applied.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace perfbench {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Distances from `source` to every node; kUnreachable where none.
/// `banned` is empty or has one entry per edge (nonzero = removed).
std::vector<double> reference_distances(const mts::DiGraph& graph, std::span<const double> weights,
                                        mts::NodeId source,
                                        std::span<const std::uint8_t> banned = {});

/// Distance from `source` to `target` (stops once the target settles).
double reference_distance(const mts::DiGraph& graph, std::span<const double> weights,
                          mts::NodeId source, mts::NodeId target,
                          std::span<const std::uint8_t> banned = {});

}  // namespace perfbench

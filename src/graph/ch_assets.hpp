// The per-(graph, weights) speedup bundle production consumers share.
//
// A ContractionHierarchy answers unmodified-graph queries; a CchTopology
// over the graph's nested-dissection order answers masked (candidate-cut)
// queries via cheap re-customization.  They are built together because
// every serving consumer (net::Snapshot, exp::table_runner) needs both:
// the oracle's reverse bounds come off the CH, its certification and the
// verifier's distance checks come off a CchMetric.
//
// ChAssets is immutable after build and shared read-only across worker
// threads; per-worker mutable state (ChSearchSpace, CchMetric) lives with
// the worker.  `ch` is built for one weight vector; `cch` depends on the
// graph alone, so bundles of one graph under different weights share it.
// A ForcePathCutProblem carrying a ChAssets pointer must point at assets
// built from its own graph+weights (checked by size, enforced by
// contract).
#pragma once

#include <memory>
#include <span>

#include "graph/cch.hpp"
#include "graph/contraction_hierarchy.hpp"
#include "graph/digraph.hpp"

namespace mts {

struct ChAssets {
  ContractionHierarchy ch;
  std::shared_ptr<const CchTopology> cch;

  /// Builds the CH for `weights` and pairs it with `topology`, which must
  /// belong to `g`; when null, builds the topology over
  /// nested_dissection_order(g).
  static ChAssets build(const DiGraph& g, std::span<const double> weights,
                        std::shared_ptr<const CchTopology> topology = nullptr);
};

/// The MTS_CH knob (default on): whether CH-backed serving paths are
/// active.  Read once per call site decision point — cheap, not cached,
/// so tests can flip it between snapshots.
[[nodiscard]] bool ch_enabled();

}  // namespace mts

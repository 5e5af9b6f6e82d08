#include "graph/ch_assets.hpp"

#include <utility>

#include "core/env.hpp"
#include "core/error.hpp"
#include "graph/nested_dissection.hpp"

namespace mts {

ChAssets ChAssets::build(const DiGraph& g, std::span<const double> weights,
                         std::shared_ptr<const CchTopology> topology) {
  if (topology == nullptr) {
    topology = std::make_shared<const CchTopology>(
        CchTopology::build(g, nested_dissection_order(g)));
  }
  require(topology->num_nodes() == g.num_nodes() && topology->num_edges() == g.num_edges(),
          "ChAssets: CCH topology belongs to another graph");
  return ChAssets{ContractionHierarchy::build(g, weights), std::move(topology)};
}

bool ch_enabled() { return env_int("MTS_CH", 1) != 0; }

}  // namespace mts

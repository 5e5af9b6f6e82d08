#include "net/snapshot.hpp"

#include <utility>

#include "obs/phase.hpp"
#include "osm/xml.hpp"

namespace mts::net {

Snapshot::Snapshot(osm::RoadNetwork network)
    : network_(std::move(network)),
      time_weights_(attack::make_weights(network_, attack::WeightType::Time)),
      length_weights_(attack::make_weights(network_, attack::WeightType::Length)),
      uniform_costs_(attack::make_costs(network_, attack::CostType::Uniform)) {
  // The CH preprocessing pays for itself after a handful of requests; the
  // daemon does it once here, before the listener opens, so no request
  // ever observes a half-built hierarchy.
  if (ch_enabled()) {
    obs::ScopedPhase phase("ch_build");
    time_ch_ = std::make_unique<ChAssets>(ChAssets::build(network_.graph(), time_weights_));
    length_ch_ = std::make_unique<ChAssets>(
        ChAssets::build(network_.graph(), length_weights_, time_ch_->cch));
  }
}

Snapshot Snapshot::load(const std::string& osm_path) {
  return Snapshot(osm::RoadNetwork::build(osm::load_osm_xml(osm_path)));
}

}  // namespace mts::net

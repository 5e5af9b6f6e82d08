// Set-up section: generate the city, write it as OSM XML, parse and build
// the routable network, and load the routed snapshot (both hierarchies).
#include <chrono>

#include "bench.hpp"
#include "citygen/generate.hpp"
#include "osm/xml.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

City set_up_city(const Workload& workload, const Options& options, int reps, Report& report) {
  City city;
  city.osm_path = options.work_dir + "/" + workload.name + ".osm";
  std::vector<double> total_s, generate_s, save_s, load_s, snapshot_s;
  for (int rep = 0; rep < reps; ++rep) {
    // Free the previous repetition first so each one allocates from the
    // same state and peak memory is one city's worth.
    city.snapshot.reset();
    city.network.reset();
    Span span("bench.setup_rep", "rep=" + std::to_string(rep));
    const auto start = std::chrono::steady_clock::now();
    mts::osm::OsmData data;
    {
      Span call("citygen.generate_city_osm");
      const auto spec = mts::citygen::city_spec(workload.city, kScale);
      data = mts::citygen::generate_city_osm(spec, kCitySeed);
    }
    generate_s.push_back(seconds_since(start));
    auto mark = std::chrono::steady_clock::now();
    {
      Span call("osm.save_osm_xml");
      mts::osm::save_osm_xml(data, city.osm_path);
    }
    save_s.push_back(seconds_since(mark));
    mark = std::chrono::steady_clock::now();
    {
      Span call("osm.load_osm_xml+build");
      city.network.emplace(mts::osm::RoadNetwork::build(mts::osm::load_osm_xml(city.osm_path)));
    }
    load_s.push_back(seconds_since(mark));
    mark = std::chrono::steady_clock::now();
    {
      Span call("net.Snapshot::load");
      city.snapshot = std::make_unique<mts::net::Snapshot>(mts::net::Snapshot::load(city.osm_path));
    }
    snapshot_s.push_back(seconds_since(mark));
    total_s.push_back(seconds_since(start));
  }
  Tally& tally = report.tally("setup");
  tally.attempted += static_cast<std::uint64_t>(reps);
  city.setup_s = median(total_s);
  report.metric("setup_s", city.setup_s, "s");
  report.metric("citygen.generate_s", median(generate_s), "s");
  report.metric("osm.save_s", median(save_s), "s");
  report.metric("osm.load_s", median(load_s), "s");
  report.metric("net.snapshot_load_s", median(snapshot_s), "s");
  report.note("city", std::string(mts::citygen::to_string(workload.city)) + ": " +
                          std::to_string(city.network->graph().num_nodes()) + " nodes, " +
                          std::to_string(city.network->graph().num_edges()) + " edges, " +
                          std::to_string(city.network->pois().size()) + " hospitals");
  return city;
}

}  // namespace perfbench

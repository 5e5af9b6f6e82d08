#include "attack/verify.hpp"

#include <cmath>

#include "graph/ch_assets.hpp"
#include "graph/dijkstra.hpp"
#include "graph/edge_filter.hpp"
#include "graph/shortest_path_count.hpp"
#include "obs/phase.hpp"

namespace mts::attack {

namespace {

/// Counts every verification plus its outcome.
VerifyReport finish(VerifyReport report) {
  static const obs::CounterId kChecks = obs::MetricsRegistry::instance().counter("verify.checks");
  static const obs::CounterId kRejections =
      obs::MetricsRegistry::instance().counter("verify.rejections");
  obs::add(kChecks);
  if (!report.ok) obs::add(kRejections);
  return report;
}

}  // namespace

VerifyReport verify_attack(const ForcePathCutProblem& problem,
                           const std::vector<EdgeId>& removed_edges) {
  obs::ScopedPhase phase("verify");
  const auto& g = *problem.graph;

  if (!is_simple_path(g, problem.p_star, problem.source, problem.target)) {
    return finish({false, "p* is not a simple source->target path"});
  }

  EdgeFilter filter(g.num_edges());
  for (EdgeId e : removed_edges) filter.remove(e);
  for (EdgeId e : problem.p_star.edges) {
    if (filter.is_removed(e)) {
      return finish({false, "removed edge " + std::to_string(e.value()) + " lies on p*"});
    }
  }

  const double len_star = path_length(problem.p_star.edges, problem.weights);
  const double eps = 1e-9 * (1.0 + std::abs(len_star));

  // Distance-under-mask check: with ChAssets present this runs off a CCH
  // re-customized to the cut (O(shortcuts) + one upward query) instead of
  // a full filtered Dijkstra.  Both compute the exact masked distance; the
  // eps comparison absorbs their summation-order ulps, so the verdict is
  // identical.  The exclusivity count and the final path identity check
  // below deliberately stay on the Dijkstra machinery: an independent
  // implementation should confirm what the CCH-accelerated attack claims.
  double dist = 0.0;
  if (problem.ch != nullptr && problem.ch->cch->num_edges() == g.num_edges() &&
      problem.ch->cch->num_nodes() == g.num_nodes()) {
    CchMetric metric(*problem.ch->cch, problem.weights);
    metric.recustomize(&filter);
    dist = metric.distance(problem.source, problem.target);
  } else {
    dist = shortest_distance(g, problem.weights, problem.source, problem.target, &filter);
  }
  if (std::abs(dist - len_star) > eps) {
    return finish({false, "shortest distance " + std::to_string(dist) + " != len(p*) " +
                       std::to_string(len_star)});
  }

  const auto count = count_shortest_paths(g, problem.weights, problem.source, problem.target,
                                          &filter);
  if (count != 1) {
    return finish(
        {false, "p* is not exclusive: " + std::to_string(count) + " tied shortest paths"});
  }

  // The unique shortest path must be p* itself.
  const auto sp = shortest_path(g, problem.weights, problem.source, problem.target, &filter);
  if (!sp || !(sp->edges == problem.p_star.edges)) {
    return finish({false, "the unique shortest path is not p*"});
  }
  return finish({true, ""});
}

}  // namespace mts::attack

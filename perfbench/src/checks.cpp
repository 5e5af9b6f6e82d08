// The checker's own tests, run at the start of every benchmark run on a
// four-node graph whose answers are known by hand:
//
//   0 -> 1 -> 3   weights 1, 1   (the shortest path, length 2)
//   0 -> 2 -> 3   weights 1, 2   (p*, length 3)
//
// Each check must accept the right answer and reject a wrong one; a checker
// that accepts everything would otherwise pass every run.
#include "bench.hpp"

namespace perfbench {

namespace {

using mts::net::Request;
using mts::net::Response;
using mts::net::Verb;

Response ok(const char* verb, std::vector<std::pair<std::string, std::string>> fields) {
  Response response;
  response.id = 1;
  response.ok = true;
  response.verb = verb;
  response.fields = std::move(fields);
  return response;
}

Request request(Verb verb) {
  Request r;
  r.verb = verb;
  r.id = 1;
  r.source = 0;
  r.target = 3;
  r.k = 2;
  r.rank = 2;
  r.sources = {0, 1};
  r.targets = {3};
  return r;
}

}  // namespace

void self_test_checks(Report& report) {
  mts::DiGraph graph;
  for (int i = 0; i < 4; ++i) graph.add_node(static_cast<double>(i), 0.0);
  const mts::EdgeId e01 = graph.add_edge(mts::NodeId(0), mts::NodeId(1));
  graph.add_edge(mts::NodeId(1), mts::NodeId(3));
  const mts::EdgeId e02 = graph.add_edge(mts::NodeId(0), mts::NodeId(2));
  const mts::EdgeId e23 = graph.add_edge(mts::NodeId(2), mts::NodeId(3));
  graph.finalize();
  const std::vector<double> weights = {1.0, 1.0, 1.0, 2.0};
  mts::Path p_star;
  p_star.edges = {e02, e23};
  p_star.length = 3.0;

  Tally& tally = report.tally("checker.self_test");
  auto expect = [&](const std::string& name, bool accepted, bool want_accepted) {
    ++tally.attempted;
    if (accepted != want_accepted) {
      ++tally.failed;
      report.check_failed("checker self-test '" + name + "': answer " +
                          (accepted ? "accepted" : "rejected"));
    }
  };
  const mts::NodeId s(0);
  const mts::NodeId d(3);
  expect("cut that forces p*", check_cut(graph, weights, p_star, s, d, {e01}).empty(), true);
  expect("empty cut", check_cut(graph, weights, p_star, s, d, {}).empty(), false);
  expect("cut through p*", check_cut(graph, weights, p_star, s, d, {e01, e02}).empty(), false);

  auto served = [&](Verb verb, Response response) {
    return check_served_answer(graph, weights, ServedAnswer{request(verb), std::move(response)})
        .empty();
  };
  expect("route", served(Verb::Route, ok("route", {{"found", "1"}, {"dist", "2"}, {"hops", "2"}})),
         true);
  expect("off-by-one route distance",
         served(Verb::Route, ok("route", {{"found", "1"}, {"dist", "3"}, {"hops", "2"}})), false);
  expect("table", served(Verb::Table, ok("table", {{"rows", "2"}, {"cols", "1"}, {"vals", "2,1"}})),
         true);
  expect("off-by-one table entry",
         served(Verb::Table, ok("table", {{"rows", "2"}, {"cols", "1"}, {"vals", "2,2"}})), false);
  expect("kalt",
         served(Verb::Kalt, ok("kalt", {{"paths", "2"}, {"best", "2"}, {"worst", "3"}})), true);
  expect("non-monotone kalt",
         served(Verb::Kalt, ok("kalt", {{"paths", "2"}, {"best", "2"}, {"worst", "1.5"}})), false);
  expect("off-by-one kalt best",
         served(Verb::Kalt, ok("kalt", {{"paths", "2"}, {"best", "3"}, {"worst", "3"}})), false);
  expect("attack", served(Verb::Attack, ok("attack", {{"status", "success"}, {"removed", "1"},
                                                      {"cost", "1"}})),
         true);
  expect("attack success with an empty cut",
         served(Verb::Attack, ok("attack", {{"status", "success"}, {"removed", "0"},
                                            {"cost", "0"}})),
         false);
  expect("attack cost != removed",
         served(Verb::Attack, ok("attack", {{"status", "success"}, {"removed", "2"},
                                            {"cost", "1"}})),
         false);
}

}  // namespace perfbench

// CH serving parity and shared-snapshot concurrency.
//
// ChServing: a QueryEngine over a CH-backed snapshot must produce
// byte-identical wire responses to one over a Dijkstra-only snapshot
// (MTS_CH=0) — the in-process twin of ci.sh's routed_ch_parity A/B
// replay.  ChSharedSnapshot: many engines on many threads share one
// const Snapshot (and therefore one ContractionHierarchy); under TSan
// this is the data-race gate for the read-only sharing contract
// (ci.sh tsan leg).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "citygen/generate.hpp"
#include "graph/dijkstra.hpp"
#include "net/engine.hpp"
#include "net/protocol.hpp"
#include "net/snapshot.hpp"

namespace mts::net {
namespace {

/// Builds a snapshot of the same small city with MTS_CH forced on or off
/// for the duration of the build (ch_enabled() is read at Snapshot
/// construction, not per query).
Snapshot build_snapshot(bool with_ch) {
  ::setenv("MTS_CH", with_ch ? "1" : "0", 1);
  Snapshot snapshot(citygen::generate_city(citygen::City::Chicago, 0.15, 5));
  ::unsetenv("MTS_CH");
  return snapshot;
}

const Snapshot& ch_snapshot() {
  static const Snapshot snapshot = build_snapshot(true);
  return snapshot;
}

const Snapshot& dijkstra_snapshot() {
  static const Snapshot snapshot = build_snapshot(false);
  return snapshot;
}

/// A deterministic request matrix covering every CH-served verb, both
/// weight kinds, and (via fixed node picks) reachable pairs.
std::vector<Request> parity_requests(std::size_t num_nodes) {
  std::vector<Request> requests;
  std::uint64_t id = 1;
  const auto node = [num_nodes](std::uint64_t i) {
    return static_cast<std::uint32_t>((i * 2654435761ULL) % num_nodes);
  };
  for (const WeightKind weight : {WeightKind::Time, WeightKind::Length}) {
    for (std::uint64_t i = 0; i < 12; ++i) {
      Request request;
      request.id = id++;
      request.weight = weight;
      request.source = node(3 * i + 1);
      request.target = node(5 * i + 2);
      if (request.source == request.target) request.target = (request.target + 1) % num_nodes;
      switch (i % 4) {
        case 0:
          request.verb = Verb::Route;
          break;
        case 1:
          request.verb = Verb::Kalt;
          request.k = 3;
          break;
        case 2:
          request.verb = Verb::Table;
          request.sources = {request.source, node(7 * i + 3), node(11 * i + 4)};
          request.targets = {request.target, node(13 * i + 5)};
          break;
        case 3:
          request.verb = Verb::Attack;
          request.rank = 2;
          request.algorithm = attack::Algorithm::GreedyPathCover;
          break;
      }
      requests.push_back(request);
    }
  }
  return requests;
}

std::vector<std::string> answer_all(const Snapshot& snapshot,
                                    const std::vector<Request>& requests) {
  QueryEngine engine(snapshot, WorkBudget{});
  std::vector<std::string> lines;
  lines.reserve(requests.size());
  for (const Request& request : requests) {
    lines.push_back(serialize_response(engine.handle(request)));
  }
  return lines;
}

TEST(ChServing, SnapshotBuildsChBundlesOnlyWhenEnabled) {
  EXPECT_NE(ch_snapshot().ch(true), nullptr);
  EXPECT_NE(ch_snapshot().ch(false), nullptr);
  EXPECT_EQ(dijkstra_snapshot().ch(true), nullptr);
  EXPECT_EQ(dijkstra_snapshot().ch(false), nullptr);
}

TEST(ChServing, WeightKindsShareOneCchTopology) {
  // The nested-dissection order reads no weights, so the TIME and LENGTH
  // bundles need only one topology between them.
  EXPECT_NE(ch_snapshot().ch(true)->cch, nullptr);
  EXPECT_EQ(ch_snapshot().ch(true)->cch, ch_snapshot().ch(false)->cch);
}

TEST(ChServing, ResponsesByteIdenticalToDijkstraServing) {
  const auto requests = parity_requests(ch_snapshot().num_nodes());
  const auto ch_lines = answer_all(ch_snapshot(), requests);
  const auto dijkstra_lines = answer_all(dijkstra_snapshot(), requests);
  ASSERT_EQ(ch_lines.size(), dijkstra_lines.size());
  for (std::size_t i = 0; i < ch_lines.size(); ++i) {
    EXPECT_EQ(ch_lines[i], dijkstra_lines[i])
        << "request " << serialize_request(requests[i]);
  }
}

TEST(ChServing, TableMatchesDirectDijkstra) {
  Request request;
  request.verb = Verb::Table;
  request.id = 7;
  request.weight = WeightKind::Time;
  request.sources = {1, 9, 33};
  request.targets = {70, 4};
  QueryEngine engine(ch_snapshot(), WorkBudget{});
  const Response response = engine.handle(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.field("rows"), "3");
  EXPECT_EQ(response.field("cols"), "2");

  const auto& g = ch_snapshot().graph();
  const auto& weights = ch_snapshot().weights(true);
  const std::string vals = response.field("vals");
  std::vector<std::string> got;
  std::size_t pos = 0;
  while (pos <= vals.size()) {
    const std::size_t comma = vals.find(',', pos);
    got.push_back(vals.substr(pos, comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  ASSERT_EQ(got.size(), 6u);
  // Compare in wire precision (%.9g): bucket sums associate additions
  // differently from a sequential path walk, so full-double equality is
  // not the contract — 9 significant digits on the wire is.
  std::size_t cell = 0;
  for (const std::uint32_t s : request.sources) {
    for (const std::uint32_t t : request.targets) {
      const double expected = shortest_distance(g, weights, NodeId(s), NodeId(t));
      EXPECT_EQ(got[cell], format_wire_double(expected)) << "cell " << cell;
      ++cell;
    }
  }
}

TEST(ChServing, TableRejectsOutOfRangeNodes) {
  Request request;
  request.verb = Verb::Table;
  request.id = 8;
  request.sources = {0};
  request.targets = {static_cast<std::uint32_t>(ch_snapshot().num_nodes())};
  QueryEngine engine(ch_snapshot(), WorkBudget{});
  const Response response = engine.handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("invalid-input"), std::string::npos) << response.error;
}

TEST(ChSharedSnapshot, ConcurrentEnginesProduceIdenticalAnswers) {
  const auto requests = parity_requests(ch_snapshot().num_nodes());
  const auto baseline = answer_all(ch_snapshot(), requests);

  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&requests, &results, i] {
      results[i] = answer_all(ch_snapshot(), requests);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(results[i], baseline) << "thread " << i;
  }
}

}  // namespace
}  // namespace mts::net

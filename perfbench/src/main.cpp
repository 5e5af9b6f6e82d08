// perfbench_driver: runs one benchmark workload and prints one JSON line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--work-dir <dir>]
//
// A workload is one city archetype taken through the whole system: set-up
// (generate, write, parse and build the network, load the routed
// snapshot), the paper's table grid on that city, and routed serving of
// the city in four closed-loop phases, one per verb.  Every answer family
// is checked against a reference outside the timed regions.
//
// --trace 0 measures with the metrics registry off.  --trace 1 first makes
// the same untraced measurement in half the time, then times the engine
// and protocol without sockets, then repeats one round of every section
// with the registry and the benchmark's spans on; it reports the layers'
// counters, phases and self times, the traced-minus-untraced overhead of
// every end-to-end figure, and writes the spans as a Chrome trace.
//
// perfbench/run.py builds this driver, runs it, and keeps the metrics
// BENCHMARK.json names; the full output is printed before that line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using mts::attack::WeightType;
using CityKind = mts::citygen::City;

/// Threads of the grid's pool: fixed, so the work shape is the same on
/// every host with at least this many CPUs.
constexpr std::size_t kMaxThreads = 4;

/// Set-ups per run (setup_s is their median), and cycles of the traced pass.
constexpr int kSetupReps = 3;
constexpr int kTracedCycles = 3;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string dotted(std::string path) {
  std::replace(path.begin(), path.end(), '/', '.');
  return path;
}

/// Every counter, histogram and phase the registry recorded, by name.  A
/// metric the build never registered is absent, not zero.
void record_registry(Report& report) {
  const mts::obs::MetricsSnapshot snapshot = mts::obs::MetricsRegistry::instance().snapshot();
  for (const auto& counter : snapshot.counters) {
    report.metric(counter.name, static_cast<double>(counter.value), "count");
  }
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.count == 0) continue;
    report.metric(histogram.name + ".count", static_cast<double>(histogram.count), "count");
    report.metric(histogram.name + ".sum", histogram.sum, "s");
    report.metric(histogram.name + ".p50", histogram.quantile(0.5), "s");
    report.metric(histogram.name + ".p99", histogram.quantile(0.99), "s");
  }
  for (const auto& phase : snapshot.phases) {
    report.metric("phase." + dotted(phase.path) + "_s", phase.seconds, "s");
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_driver: " << problem << "\n"
            << "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n  workloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir") args.work_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Measures whole cycles until `seconds` have passed, at least
/// `min_cycles` of them, after one warm-up cycle that is run and checked
/// but not timed (it fills the caches, starts the grid's pool and warms the
/// daemon's engine; on a 4-vCPU VM its grid round took up to twice as long
/// as the rest).  A cycle is one grid round followed by
/// kServingRoundsPerCycle closed-loop rounds of each served verb, so a slow
/// spell of the host touches every metric alike.  Every timed figure is
/// the median over the timed rounds.  On a shared 4-vCPU VM the host's
/// speed drifts over tens of seconds, so a run's best rounds move with it
/// as much as its median does: over ten seeds the 75th and 90th
/// percentiles of route throughput spread 12-15% where the median spread
/// 10-11%, and the grid's 25th percentile 6-9% where its median spread
/// 4.5-6%.
/// Returns the warm-up's grid round, whose cuts check_grid re-derives.
GridRound measure_cycles(const Workload& workload, const Options& options, const City& city,
                         double seconds, int min_cycles, bool check, Report& report, E2e& e2e) {
  const Server server(city, options);
  if (check) check_answers(workload, options, city, server, report);
  GridRound first;
  std::vector<double> grid_s, scenario_s, cells_s;
  std::vector<std::vector<double>> run_ms(4);
  std::vector<std::vector<double>> qps(std::size(kServedMixes)), p50_ms(qps.size()),
      p99_ms(qps.size());
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  for (int cycle = 0; cycle <= min_cycles || elapsed() < seconds; ++cycle) {
    const bool timed = cycle > 0;
    GridRound round = run_grid_round(workload, options, city, cycle, report);
    std::cerr << "cycle " << cycle << ": grid_s=" << round.grid_s << '\n';
    if (timed) {
      grid_s.push_back(round.grid_s);
      scenario_s.push_back(round.scenario_s);
      cells_s.push_back(round.cells_s);
      for (std::size_t ai = 0; ai < run_ms.size(); ++ai) {
        if (round.run_ms[ai] >= 0.0) run_ms[ai].push_back(round.run_ms[ai]);
      }
    } else {
      first = std::move(round);
    }
    for (int rep = 0; rep < kServingRoundsPerCycle; ++rep) {
      const int serving_round = cycle * kServingRoundsPerCycle + rep;
      for (std::size_t v = 0; v < std::size(kServedMixes); ++v) {
        const VerbRound r =
            run_verb_round(workload, options, server, kServedMixes[v], serving_round, report);
        if (timed) {
          qps[v].push_back(r.qps);
          p50_ms[v].push_back(r.p50_ms);
          p99_ms[v].push_back(r.p99_ms);
        }
        std::cerr << ' ' << mts::net::to_string(kServedMixes[v]) << "=" << r.qps << "/"
                  << r.p99_ms;
      }
      std::cerr << '\n';
    }
    if (!timed) start = std::chrono::steady_clock::now();
  }
  report.metric("cycles", static_cast<double>(grid_s.size()), "count");
  report.metric("grid_s", median(grid_s), "s");
  report.metric("exp.scenario_s", median(scenario_s), "s");
  report.metric("exp.cells_s", median(cells_s), "s");
  e2e.set("grid_s", median(grid_s));
  for (std::size_t ai = 0; ai < run_ms.size(); ++ai) {
    if (!run_ms[ai].empty()) report.metric(attack_run_metric(ai), median(run_ms[ai]), "ms");
  }
  for (std::size_t v = 0; v < std::size(kServedMixes); ++v) {
    const std::string verb = mts::net::to_string(kServedMixes[v]);
    const double verb_qps = median(qps[v]);
    const double verb_p99 = median(p99_ms[v]);
    const double verb_p50 = median(p50_ms[v]);
    report.metric(verb + "_qps", verb_qps, "req/s");
    report.metric(verb + "_p99_ms", verb_p99, "ms");
    report.metric("client." + verb + "_p50_ms", verb_p50, "ms");
    e2e.set(verb + "_qps", verb_qps);
    e2e.set(verb + "_p99_ms", verb_p99);
    e2e.set(verb + "_p50_ms", verb_p50);
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  e2e.set("peak_rss_mb", peak_rss_mb());
  if (const std::string failure = server.failure(); !failure.empty()) {
    report.check_failed("routed server: " + failure);
  }
  return first;
}

}  // namespace

void E2e::set(const std::string& name, double value) {
  for (auto& [k, v] : values) {
    if (k == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(name, value);
}

std::optional<double> E2e::get(const std::string& name) const {
  for (const auto& [k, v] : values) {
    if (k == name) return v;
  }
  return std::nullopt;
}

// Round sizes keep each verb's round near 0.05-0.3 s at this code's
// single-CPU throughput, and the grid's scenario counts keep a grid round
// near 1 s, so a 40 s run holds about 10 (chicago) to 20 (boston) cycles.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> all;
    Workload chicago;
    chicago.name = "chicago";
    chicago.city = CityKind::Chicago;
    chicago.grid_weight = WeightType::Length;
    chicago.trials = 6;
    chicago.route = {3000, 200, 2000, 64};
    chicago.table = {1000, 40, 400, 16};
    chicago.kalt = {200, 40, 200, 16};
    chicago.attack = {4, 8, 16};
    all.push_back(chicago);

    Workload boston;
    boston.name = "boston";
    boston.city = CityKind::Boston;
    boston.grid_weight = WeightType::Length;
    boston.trials = 24;
    boston.route = {4000, 200, 2000, 64};
    boston.table = {1500, 40, 400, 16};
    boston.kalt = {300, 40, 200, 16};
    boston.attack = {30, 16, 40};
    all.push_back(boston);

    Workload la;
    la.name = "los-angeles";
    la.city = CityKind::LosAngeles;
    la.grid_weight = WeightType::Time;
    la.trials = 12;
    la.route = {4000, 200, 2000, 64};
    la.table = {1500, 40, 400, 16};
    la.kalt = {160, 40, 200, 16};
    la.attack = {12, 8, 20};
    all.push_back(la);
    return all;
  }();
  return kWorkloads;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto& all = workloads();
  const auto found = std::find_if(all.begin(), all.end(),
                                  [&](const Workload& w) { return w.name == args.workload; });
  if (found == all.end()) usage("unknown workload '" + args.workload + "'");
  const Workload& workload = *found;

  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Options options;
  options.seed = args.seed;
  options.work_dir = args.work_dir;
  options.threads = std::min(kMaxThreads, hw);
  // One queue worker and one pipelining connection, on the one CPU serving
  // is pinned to (see serve.cpp).
  options.server_workers = 1;
  std::filesystem::create_directories(options.work_dir);

  // The benchmark measures time, so MTS_TIMING=0 (which zeroes reported
  // durations) cannot apply; the registry is on only in the traced pass.
  mts::set_timing_enabled(true);
  mts::obs::set_trace_enabled(false);
  mts::obs::set_metrics_enabled(false);
  mts::set_num_threads(options.threads);

  Report report;
  report.note("threads", std::to_string(options.threads));
  report.note("server_workers", std::to_string(options.server_workers));
  report.note("connections", "1");
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("compiler", std::string(PERFBENCH_CXX_ID) + " " + PERFBENCH_CXX_VERSION);
  self_test_checks(report);

  E2e untraced;
  {
    City city = set_up_city(workload, options, kSetupReps, report);
    untraced.set("setup_s", city.setup_s);
    const double seconds = args.trace ? args.seconds / 2 : args.seconds;
    const GridRound first = measure_cycles(workload, options, city, seconds, 1, true, report,
                                           untraced);
    check_grid(workload, city, first, report);
    if (args.trace) {
      Spans::enable(true);
      measure_engine(workload, options, city, untraced, report);
    }
  }

  if (args.trace) {
    // A fixed number of cycles with the registry and the spans on, so the
    // counters are the work of the same inputs on every run of a seed.
    Report traced_report;
    E2e traced;
    mts::obs::MetricsRegistry::instance().reset();
    mts::obs::set_metrics_enabled(true);
    const City city = set_up_city(workload, options, 1, traced_report);
    traced.set("setup_s", city.setup_s);
    const GridRound first =
        measure_cycles(workload, options, city, 0.0, kTracedCycles, false, traced_report, traced);
    record_registry(report);
    mts::obs::set_metrics_enabled(false);
    check_grid(workload, city, first, traced_report);
    Spans::enable(false);

    for (const auto& [layer, seconds] : Spans::self_seconds_by_layer()) {
      report.metric("self_s." + layer, seconds, "s");
    }
    for (const auto& [name, value] : untraced.values) {
      const auto traced_value = traced.get(name);
      const bool client_p50 = name.ends_with("_p50_ms");
      if (traced_value && value != 0.0 && !client_p50) {
        report.metric("trace_overhead." + name, (*traced_value - value) / value * 100.0, "%");
      }
    }
    const std::string trace_path = options.work_dir + "/trace_" + workload.name + "_" +
                                   std::to_string(options.seed) + ".json";
    Spans::write_chrome_trace(trace_path);
    report.note("trace_file", trace_path);
    report.absorb_accounting(traced_report);
  }

  std::cout << report.to_json() << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 1;
  }
}

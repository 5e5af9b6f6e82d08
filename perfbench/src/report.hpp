// Result assembly for the benchmark driver: named metrics with units,
// attempted/failed accounting per phase, order statistics, and the JSON
// the driver prints as its last line (perfbench/run.py reshapes it).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `values` (0 for an empty vector).
double median(std::vector<double> values);

/// Quantile q in [0, 1] by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q);

/// One phase's attempted/failed operation counts.  `detail` carries the
/// phase's own breakdown (e.g. ok/err/dropped for a served verb).
struct Tally {
  std::string phase;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::uint64_t>> detail;

  void add_detail(const std::string& key, std::uint64_t value);
};

class Report {
 public:
  /// Records `name` once; a second set() of the same name overwrites it.
  void metric(const std::string& name, double value, const std::string& unit);
  Tally& tally(const std::string& phase);
  /// Adds another report's accounting and check failures to this one.
  void absorb_accounting(const Report& other);
  /// A failed independent check: the run's answers are wrong.
  void check_failed(const std::string& what);
  void note(const std::string& key, const std::string& value);

  [[nodiscard]] bool correct() const { return check_failures_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

  /// One-line JSON object: correct, attempted, failed, metrics, plus the
  /// accounting, check failures, and notes the wrapper prints beside it.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::deque<Tally> tallies_;  // deque: tally() references stay valid
  std::vector<std::string> check_failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

std::string json_string(const std::string& raw);

}  // namespace perfbench

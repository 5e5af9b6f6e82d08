#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void Tally::add_detail(const std::string& key, std::uint64_t value) {
  for (auto& [k, v] : detail) {
    if (k == key) {
      v += value;
      return;
    }
  }
  detail.emplace_back(key, value);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

Tally& Report::tally(const std::string& phase) {
  for (Tally& t : tallies_) {
    if (t.phase == phase) return t;
  }
  tallies_.push_back(Tally{phase, 0, 0, {}});
  return tallies_.back();
}

void Report::absorb_accounting(const Report& other) {
  for (const Tally& t : other.tallies_) {
    Tally& mine = tally(t.phase);
    mine.attempted += t.attempted;
    mine.failed += t.failed;
    for (const auto& [key, value] : t.detail) mine.add_detail(key, value);
  }
  for (const std::string& what : other.check_failures_) check_failed(what);
}

void Report::check_failed(const std::string& what) {
  // Keep the output bounded when one fault fails thousands of answers.
  if (check_failures_.size() < 20) check_failures_.push_back(what);
  else if (check_failures_.size() == 20) check_failures_.push_back("(further failures omitted)");
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

std::uint64_t Report::attempted() const {
  std::uint64_t total = 0;
  for (const Tally& t : tallies_) total += t.attempted;
  return total;
}

std::uint64_t Report::failed() const {
  std::uint64_t total = 0;
  for (const Tally& t : tallies_) total += t.failed;
  return total;
}

std::string json_string(const std::string& raw) {
  std::string out = "\"";
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted());
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics_[i].name) + ": {\"value\": " + json_number(metrics_[i].value) +
           ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  out += "}, \"accounting\": [";
  for (std::size_t i = 0; i < tallies_.size(); ++i) {
    const Tally& t = tallies_[i];
    if (i > 0) out += ", ";
    out += "{\"phase\": " + json_string(t.phase) + ", \"attempted\": " +
           std::to_string(t.attempted) + ", \"failed\": " + std::to_string(t.failed);
    for (const auto& [key, value] : t.detail) {
      out += ", " + json_string(key) + ": " + std::to_string(value);
    }
    out += "}";
  }
  out += "], \"check_failures\": [";
  for (std::size_t i = 0; i < check_failures_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(check_failures_[i]);
  }
  out += "], \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(notes_[i].first) + ": " + json_string(notes_[i].second);
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

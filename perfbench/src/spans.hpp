// In-memory spans around the benchmark's calls into the program.
//
// A span records name, start, end, the span that was open when it started
// on the same thread (its parent), and an optional key naming the grid
// cell or request it belongs to.  Spans stay in memory and are written once
// at the end as Chrome trace JSON in the shape tools/trace_schema.json
// describes.  Recording is off unless enable() was called, so untraced runs
// pay one branch per call.
//
// A span's name is "<layer>.<call>"; a layer's self time is the sum over its
// spans of duration minus the time covered by their child spans.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string key;  // "cell=<...>" or "request=<id>"; empty otherwise
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint32_t tid = 0;
};

class Spans {
 public:
  static void enable(bool on);
  [[nodiscard]] static bool enabled();
  /// Sum of self time per layer (the name's prefix before the first '.').
  [[nodiscard]] static std::vector<std::pair<std::string, double>> self_seconds_by_layer();
  static void write_chrome_trace(const std::string& path);
};

/// RAII span; a no-op while recording is off.
class Span {
 public:
  explicit Span(const char* name, std::string key = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
};

}  // namespace perfbench

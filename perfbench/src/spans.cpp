#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "report.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{0};
std::mutex g_mutex;
std::vector<SpanRecord> g_records;  // guarded by g_mutex
const auto g_epoch = std::chrono::steady_clock::now();

thread_local std::vector<std::uint64_t> t_stack;
thread_local std::uint32_t t_tid = g_next_tid.fetch_add(1);

double now_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - g_epoch)
      .count();
}

std::vector<SpanRecord> collect() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_records;
}

}  // namespace

void Spans::enable(bool on) { g_enabled.store(on); }

bool Spans::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<std::pair<std::string, double>> Spans::self_seconds_by_layer() {
  const std::vector<SpanRecord> records = collect();
  std::unordered_map<std::uint64_t, double> child_us;
  for (const SpanRecord& r : records) {
    if (r.parent != 0) child_us[r.parent] += r.end_us - r.start_us;
  }
  std::map<std::string, double> by_layer;
  for (const SpanRecord& r : records) {
    const std::string layer = r.name.substr(0, r.name.find('.'));
    const auto it = child_us.find(r.id);
    const double self_us = (r.end_us - r.start_us) - (it == child_us.end() ? 0.0 : it->second);
    by_layer[layer] += self_us * 1e-6;
  }
  return {by_layer.begin(), by_layer.end()};
}

void Spans::write_chrome_trace(const std::string& path) {
  const std::vector<SpanRecord> records = collect();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char num[64];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "{\"name\": " << json_string(r.name) << ", \"cat\": \""
        << (r.key.rfind("request=", 0) == 0 ? "mts.request" : "mts") << "\", \"ph\": \"X\"";
    std::snprintf(num, sizeof num, "%.3f", r.start_us);
    out << ", \"ts\": " << num;
    std::snprintf(num, sizeof num, "%.3f", r.end_us - r.start_us);
    out << ", \"dur\": " << num << ", \"pid\": 1, \"tid\": " << r.tid;
    out << ", \"args\": {\"span\": " << r.id << ", \"parent\": " << r.parent;
    if (!r.key.empty()) out << ", \"key\": " << json_string(r.key);
    out << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

Span::Span(const char* name, std::string key) {
  if (!Spans::enabled()) return;
  active_ = true;
  record_.name = name;
  record_.key = std::move(key);
  record_.id = g_next_id.fetch_add(1);
  record_.parent = t_stack.empty() ? 0 : t_stack.back();
  record_.tid = t_tid;
  t_stack.push_back(record_.id);
  record_.start_us = now_us();
}

Span::~Span() {
  if (!active_) return;
  record_.end_us = now_us();
  t_stack.pop_back();
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_records.push_back(std::move(record_));
}

}  // namespace perfbench

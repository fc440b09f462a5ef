#include "obs/timeseries.h"

#include <utility>

namespace thunderbolt::obs {

TimeSeriesRecorder::TimeSeriesRecorder(const MetricsRegistry* registry,
                                       uint64_t window_us)
    : registry_(registry), window_us_(window_us == 0 ? 1 : window_us) {}

std::map<std::string, uint64_t> TimeSeriesRecorder::TakeDeltasLocked() {
  std::map<std::string, uint64_t> current = registry_->CounterValues();
  std::map<std::string, uint64_t> deltas;
  for (const auto& [name, value] : current) {
    auto it = last_counters_.find(name);
    const uint64_t prev = it == last_counters_.end() ? 0 : it->second;
    if (value > prev) deltas[name] = value - prev;
  }
  last_counters_ = std::move(current);
  return deltas;
}

void TimeSeriesRecorder::CloseWindowLocked(
    uint64_t end_us, std::map<std::string, uint64_t>&& deltas) {
  TimeSeriesWindow w;
  w.start_us = window_start_;
  w.end_us = end_us;
  w.counter_deltas = std::move(deltas);
  w.gauges = registry_->GaugeValues();
  for (const auto& [name, hist] : registry_->HistogramSnapshots()) {
    TimeSeriesWindow::HistStats s;
    s.count = hist.Count();
    if (s.count > 0) {
      s.mean = hist.Mean();
      s.p50 = hist.Percentile(50.0);
      s.p99 = hist.Percentile(99.0);
      s.max = hist.Max();
    }
    w.histograms.emplace(name, s);
  }
  windows_.push_back(std::move(w));
  window_start_ = end_us;
}

std::vector<TimeSeriesWindow> TimeSeriesRecorder::Advance(uint64_t now_us) {
  std::lock_guard<std::mutex> lk(mu_);
  if (now_us > last_now_) last_now_ = now_us;
  if (window_start_ + window_us_ > now_us) return {};
  const size_t first = windows_.size();
  // The delta since the previous sample belongs to the last window this
  // call closes; any earlier gap windows close empty.
  std::map<std::string, uint64_t> deltas = TakeDeltasLocked();
  while (window_start_ + 2 * window_us_ <= now_us) {
    CloseWindowLocked(window_start_ + window_us_, {});
  }
  CloseWindowLocked(window_start_ + window_us_, std::move(deltas));
  return {windows_.begin() + first, windows_.end()};
}

std::vector<TimeSeriesWindow> TimeSeriesRecorder::Flush() {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, uint64_t> deltas = TakeDeltasLocked();
  const uint64_t end = last_now_ > window_start_ ? last_now_ : window_start_;
  if (end == window_start_ && deltas.empty()) return {};
  CloseWindowLocked(end, std::move(deltas));
  return {windows_.back()};
}

size_t TimeSeriesRecorder::window_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return windows_.size();
}

std::vector<TimeSeriesWindow> TimeSeriesRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return windows_;
}

uint64_t TimeSeriesRecorder::CounterTotal(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t total = 0;
  for (const TimeSeriesWindow& w : windows_) total += w.Delta(name);
  return total;
}

std::string TimeSeriesRecorder::ToJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\n  \"window_us\": " + std::to_string(window_us_);
  out += ",\n  \"windows\": [";
  for (size_t i = 0; i < windows_.size(); ++i) {
    const TimeSeriesWindow& w = windows_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"start_us\": " + std::to_string(w.start_us);
    out += ", \"end_us\": " + std::to_string(w.end_us);
    out += ", \"counters\": {";
    bool first = true;
    for (const auto& [name, delta] : w.counter_deltas) {
      out += first ? "" : ", ";
      first = false;
      detail::AppendQuoted(out, name);
      out += ": " + std::to_string(delta);
    }
    out += "}, \"gauges\": {";
    first = true;
    for (const auto& [name, value] : w.gauges) {
      out += first ? "" : ", ";
      first = false;
      detail::AppendQuoted(out, name);
      out += ": " + detail::FormatDouble(value);
    }
    out += "}, \"histograms\": {";
    first = true;
    for (const auto& [name, s] : w.histograms) {
      out += first ? "" : ", ";
      first = false;
      detail::AppendQuoted(out, name);
      out += ": {\"count\": " + std::to_string(s.count);
      if (s.count > 0) {
        out += ", \"mean\": " + detail::FormatDouble(s.mean);
        out += ", \"p50\": " + detail::FormatDouble(s.p50);
        out += ", \"p99\": " + detail::FormatDouble(s.p99);
        out += ", \"max\": " + detail::FormatDouble(s.max);
      }
      out += "}";
    }
    out += "}}";
  }
  out += windows_.empty() ? "],\n" : "\n  ],\n";
  out += "  \"totals\": {";
  bool first = true;
  for (const auto& [name, value] : last_counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    detail::AppendQuoted(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace thunderbolt::obs

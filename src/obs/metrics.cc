#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace thunderbolt::obs {

namespace detail {

// %.6g never emits a bare trailing dot and covers both latencies
// (fractional) and large sums (exponent form).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AppendQuoted(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace detail

namespace {
using detail::AppendQuoted;
using detail::FormatDouble;
}  // namespace

std::string LabeledName(const std::string& name, Labels labels) {
  if (labels.empty()) return name;
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string out = name;
  out += '{';
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].key;
    out += '=';
    out += labels[i].value;
  }
  out += '}';
  return out;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>();
  return *slot;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const HistogramMetric* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::map<std::string, uint64_t> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->value();
  return out;
}

std::map<std::string, double> MetricsRegistry::GaugeValues() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->value();
  return out;
}

std::map<std::string, Histogram> MetricsRegistry::HistogramSnapshots() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, Histogram> out;
  for (const auto& [name, metric] : histograms_) {
    out.emplace(name, metric->Snapshot());
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendQuoted(out, name);
    out += ": " + std::to_string(counter->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendQuoted(out, name);
    out += ": " + FormatDouble(gauge->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, metric] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    const Histogram h = metric->Snapshot();
    out += "    ";
    AppendQuoted(out, name);
    out += ": {\"count\": " + std::to_string(h.Count());
    if (h.Count() == 0) {
      // An empty histogram has no percentiles: emitting the usual 0.0
      // stats would be indistinguishable from a genuinely instant run.
      out += "}";
      continue;
    }
    out += ", \"mean\": " + FormatDouble(h.Mean());
    out += ", \"min\": " + FormatDouble(h.Min());
    out += ", \"p50\": " + FormatDouble(h.Percentile(50.0));
    out += ", \"p99\": " + FormatDouble(h.Percentile(99.0));
    out += ", \"p999\": " + FormatDouble(h.Percentile(99.9));
    out += ", \"max\": " + FormatDouble(h.Max());
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace thunderbolt::obs

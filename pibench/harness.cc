#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace pibench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0;
  std::size_t n = 0;
  for (double v : values) {
    if (v > 0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

void SpanLog::Add(std::string layer, std::string name,
                  Clock::time_point begin, int tid,
                  std::vector<std::pair<std::string, double>> args) {
  const Clock::time_point end = Clock::now();
  Span span;
  span.layer = std::move(layer);
  span.name = std::move(name);
  span.start_us =
      std::chrono::duration<double, std::micro>(begin - origin_).count();
  span.dur_us = std::chrono::duration<double, std::micro>(end - begin).count();
  span.tid = tid;
  span.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.layer.c_str(), s.tid,
                 s.start_us, s.dur_us);
    for (std::size_t a = 0; a < s.args.size(); ++a) {
      std::fprintf(f, "%s\"%s\": %s", a == 0 ? "" : ", ",
                   s.args[a].first.c_str(),
                   FormatNumber(s.args[a].second).c_str());
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void MetricList::Add(const std::string& name, double value,
                     const std::string& unit) {
  entries_.push_back({name, {value, unit}});
}

std::string MetricList::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].first + "\": {\"value\": " +
           FormatNumber(entries_[i].second.first) + ", \"unit\": \"" +
           entries_[i].second.second + "\"}";
  }
  return out + "}";
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace pibench

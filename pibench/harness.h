// Measurement plumbing for pibench: percentiles, the in-memory span log
// of the traced run, and the metric list printed as the run's result.

#ifndef PIBENCH_HARNESS_H_
#define PIBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pibench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed on the steady clock since `since`.
inline double MsSince(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// The q-quantile (q in [0,1]) of `values` with linear interpolation
/// between the closest ranks; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Geometric mean of the positive entries of `values`; 0 when none.
double GeoMean(const std::vector<double>& values);

/// One benchmark-recorded span: a call the benchmark made into one
/// layer's public surface, in microseconds since the run's origin.
struct Span {
  std::string layer;
  std::string name;
  double start_us = 0;
  double dur_us = 0;
  int tid = 0;
  /// Extra `"key": number` pairs rendered into the event's args.
  std::vector<std::pair<std::string, double>> args;
};

/// Spans of the traced run, kept in memory and written out once at the
/// end as Chrome trace-event JSON. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Records a span that started at `begin` and ends now.
  void Add(std::string layer, std::string name, Clock::time_point begin,
           int tid, std::vector<std::pair<std::string, double>> args = {});

  std::size_t size() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// An ordered list of named metrics with units, rendered into the run's
/// JSON result line and the human-readable summary.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }
  /// `{"name": {"value": v, "unit": "u"}, ...}`.
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Shortest round-trip decimal form of `v` (non-finite values print 0).
std::string FormatNumber(double v);

/// Peak resident set size of this process, megabytes.
double PeakRssMb();

}  // namespace pibench

#endif  // PIBENCH_HARNESS_H_

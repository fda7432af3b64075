#ifndef PATCHINDEX_BENCH_BENCH_UTIL_H_
#define PATCHINDEX_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <functional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "exec/operator.h"

namespace patchindex::bench {

/// The one seed every benchmark derives its data from. Rng's default seed
/// happens to be the same value, but the benches pass this constant
/// explicitly (GeneratorConfig::seed, Rng construction) so runs stay
/// reproducible and comparable even if a default somewhere changes —
/// the paper's "datasets are generated once" comparability argument
/// (§6.2) applied to the harness itself.
inline constexpr std::uint64_t kBenchSeed = 42;

/// A deterministic per-benchmark Rng: the benchmark name salts the seed so
/// two benches never consume the same stream.
inline Rng SeededRng(std::uint64_t salt = 0) {
  return Rng(kBenchSeed + salt);
}

/// Runs `fn` once and returns wall-clock seconds.
inline double TimeOnce(const std::function<void()>& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

/// Runs `fn` `reps` times and returns the best wall-clock seconds (the
/// paper measures hot queries; best-of mimics warmed caches).
inline double TimeBest(int reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    const double t = TimeOnce(fn);
    if (t < best) best = t;
  }
  return best;
}

/// Median and 10th/90th percentiles (nearest rank) of repeated timings,
/// seconds.
struct TimeSpread {
  double median = 0;
  double p10 = 0;
  double p90 = 0;
};

/// Runs `fn` `reps` times and returns the spread of the wall-clock
/// seconds — the median plus how far the runs scattered, which best-of
/// (TimeBest) hides.
inline TimeSpread TimeMedian(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(TimeOnce(fn));
  std::sort(times.begin(), times.end());
  const auto at = [&times](double q) {
    return times[static_cast<std::size_t>(q * (times.size() - 1) + 0.5)];
  };
  return {at(0.5), at(0.1), at(0.9)};
}

/// Drains a freshly built plan, returning the row count (so the work is
/// not optimized away).
inline std::uint64_t Drain(Operator& op) { return CountRows(op); }

/// Process peak RSS in bytes (ru_maxrss is KiB on Linux), or 0 when
/// getrusage is unavailable.
inline std::uint64_t PeakRssBytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

/// Appends the machine/build metadata line every BENCH_*.json carries so
/// recorded numbers can be matched to the hardware and build that
/// produced them. Emits `  "machine": {...},\n` — call it right after
/// printing the opening `{` of the top-level object. Since the line is
/// written as the results file is finalized, peak_rss_bytes covers the
/// benchmark's whole run — datasets, indexes, and query state included.
inline void WriteMachineJson(std::FILE* f) {
  char stamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  if (gmtime_r(&now, &tm) != nullptr) {
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm);
  }
#ifdef NDEBUG
  const char* build = "Release";
#else
  const char* build = "Debug";
#endif
  std::fprintf(f,
               "  \"machine\": {\"hardware_threads\": %u, "
               "\"build\": \"%s\", \"timestamp\": \"%s\", "
               "\"peak_rss_bytes\": %llu},\n",
               std::thread::hardware_concurrency(), build, stamp,
               static_cast<unsigned long long>(PeakRssBytes()));
}

}  // namespace patchindex::bench

#endif  // PATCHINDEX_BENCH_BENCH_UTIL_H_

#ifndef PATCHINDEX_OBS_TRACE_H_
#define PATCHINDEX_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace patchindex::obs {

/// One completed span on a query's timeline. Times are microseconds
/// relative to the owning TraceBuffer's creation (the query's start), so
/// an exported trace always begins at ts=0.
struct TraceEvent {
  std::string name;
  /// Timeline lane: 0 is the coordinating session thread, 1..N are the
  /// executor's pool workers (worker index + 1).
  std::uint32_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

/// Span sink for one traced query, created at statement start when the
/// engine's trace sampler selects the query and carried through the
/// executor next to the ExecProfile. Add() takes a short mutex — tracing
/// is a sampled diagnostic path, not the steady-state hot path (with
/// sampling off no TraceBuffer exists and nothing is paid).
class TraceBuffer {
 public:
  /// `base_offset_us` backdates the timeline origin: a buffer created
  /// after parse/bind already happened passes their combined span so the
  /// synthetic parse/bind events it then Add()s occupy [0, offset) and
  /// live spans start at ~offset instead of overlapping them.
  explicit TraceBuffer(std::uint64_t base_offset_us = 0)
      : base_(std::chrono::steady_clock::now() -
              std::chrono::microseconds(base_offset_us)) {}

  /// Microseconds elapsed since the buffer (the query) started.
  std::uint64_t NowUs() const {
    return OffsetUs(std::chrono::steady_clock::now());
  }

  /// Microseconds from the buffer's origin to `t` (not before it).
  std::uint64_t OffsetUs(std::chrono::steady_clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - base_)
            .count());
  }

  void Add(std::string name, std::uint32_t tid, std::uint64_t start_us,
           std::uint64_t dur_us) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(
        TraceEvent{std::move(name), tid, start_us, dur_us});
  }

  std::vector<TraceEvent> Events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  std::chrono::steady_clock::time_point base_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII span: records [construction, destruction) onto `buf` (no-op when
/// `buf` is null, so call sites need no sampling branches).
class TraceSpan {
 public:
  TraceSpan(TraceBuffer* buf, const char* name, std::uint32_t tid)
      : buf_(buf), name_(name), tid_(tid),
        start_us_(buf == nullptr ? 0 : buf->NowUs()) {}
  ~TraceSpan() {
    if (buf_ != nullptr) {
      buf_->Add(name_, tid_, start_us_, buf_->NowUs() - start_us_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceBuffer* buf_;
  const char* name_;
  std::uint32_t tid_;
  std::uint64_t start_us_;
};

/// The engine's phase histograms, in kPhases order.
using PhaseHistograms = std::array<Histogram*, kPhases.size()>;

/// Where one statement's PhaseSpans report. `profile` and `histograms`
/// are always set; `trace` only when the trace sampler selected the
/// statement, `active` only for statements the flight recorder tracks.
struct PhaseSinks {
  QueryProfile* profile = nullptr;
  const PhaseHistograms* histograms = nullptr;
  TraceBuffer* trace = nullptr;
  FlightRecorder::Handle active;
};

/// RAII measurement of one statement phase — the only clock on a phase.
/// Opening sets the flight-recorder phase (what pi_stats.active_queries
/// shows); closing reads the clock once and writes that one duration to
/// every surface: it adds it to the profile's phase field (QueryRecord
/// copies the profile), records it in the phase histogram, and adds a
/// span named after the phase to the trace. Every exit path closes the
/// span, so a failed statement keeps the phases it ran. `sinks` must
/// outlive the span.
class PhaseSpan {
 public:
  PhaseSpan(const PhaseSinks& sinks, QueryPhase phase);
  ~PhaseSpan() { Close(); }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  /// Ends the phase before scope exit; later calls are no-ops.
  void Close();

 private:
  const PhaseSinks* sinks_;
  QueryPhase phase_;
  std::chrono::steady_clock::time_point start_;
};

/// Renders spans as Chrome trace-event JSON (the array-of-"X"-events
/// form) — loadable in chrome://tracing and Perfetto. Event names are
/// JSON-escaped; ts/dur are microseconds.
std::string RenderChromeTrace(const std::vector<TraceEvent>& events);

}  // namespace patchindex::obs

#endif  // PATCHINDEX_OBS_TRACE_H_

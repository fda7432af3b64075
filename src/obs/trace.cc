#include "obs/trace.h"

#include <cstdio>

namespace patchindex::obs {

namespace {

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

PhaseSpan::PhaseSpan(const PhaseSinks& sinks, QueryPhase phase)
    : sinks_(&sinks), phase_(phase) {
  if (sinks.active != nullptr) FlightRecorder::SetPhase(sinks.active, phase);
  start_ = std::chrono::steady_clock::now();
}

void PhaseSpan::Close() {
  if (sinks_ == nullptr) return;
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  const PhaseInfo& info = PhaseOf(phase_);
  sinks_->profile->*info.ms += static_cast<double>(ns) / 1e6;
  (*sinks_->histograms)[static_cast<std::size_t>(phase_)]->RecordNanos(ns);
  if (sinks_->trace != nullptr) {
    sinks_->trace->Add(info.name, 0, sinks_->trace->OffsetUs(start_),
                       static_cast<std::uint64_t>(ns) / 1000);
  }
  sinks_ = nullptr;
}

std::string RenderChromeTrace(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, e.name);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%llu,"
                  "\"dur\":%llu}",
                  e.tid, static_cast<unsigned long long>(e.start_us),
                  static_cast<unsigned long long>(e.dur_us));
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace patchindex::obs

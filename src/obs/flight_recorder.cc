#include "obs/flight_recorder.h"

#include <algorithm>
#include <utility>

#include "common/epoch_gc.h"
#include "obs/mem_tracker.h"

namespace patchindex::obs {

namespace {

std::uint64_t UnixMicrosNow() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
}

}  // namespace

void FlightRecorder::SetPhaseDetail(const Handle& handle,
                                    std::string detail) {
  std::lock_guard<std::mutex> lock(handle->detail_mu);
  handle->phase_detail = std::move(detail);
}

void FlightRecorder::SetMemory(const Handle& handle,
                               std::shared_ptr<MemoryTracker> tracker) {
  std::lock_guard<std::mutex> lock(handle->detail_mu);
  handle->mem = std::move(tracker);
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

FlightRecorder::Handle FlightRecorder::Begin(std::uint64_t session_id,
                                             std::int64_t connection_id,
                                             const std::string& sql) {
  auto entry = std::make_shared<ActiveEntry>();
  entry->session_id = session_id;
  entry->connection_id = connection_id;
  entry->sql = sql;
  entry->start_unix_us = UnixMicrosNow();
  entry->start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  entry->query_id = next_query_id_++;
  active_.emplace(entry->query_id, entry);
  return entry;
}

void FlightRecorder::Complete(const Handle& handle, QueryRecord record) {
  record.query_id = handle->query_id;
  record.session_id = handle->session_id;
  record.connection_id = handle->connection_id;
  record.sql = handle->sql;
  record.start_unix_us = handle->start_unix_us;
  {
    // Detach the tracker so its balance releases when the session's
    // reference drops — not when the epoch GC retires this entry.
    std::lock_guard<std::mutex> detail_lock(handle->detail_mu);
    handle->mem.reset();
  }
  Handle removed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(handle->query_id);
    if (it != active_.end()) {
      removed = std::move(it->second);
      active_.erase(it);
    }
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
    } else {
      ring_[next_slot_] = std::move(record);
    }
    next_slot_ = (next_slot_ + 1) % capacity_;
    ++completed_;
  }
  if (removed != nullptr) {
    // Defer the registry's reference through the epoch GC: raw
    // ActiveEntry pointers resolved under an epoch guard stay valid
    // until every such guard releases.
    EpochGc::Global().Retire([entry = std::move(removed)]() mutable {
      entry.reset();
    });
  }
}

std::vector<QueryRecord> FlightRecorder::CompletedSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryRecord> out;
  out.reserve(ring_.size());
  // Newest first: walk backwards from the slot most recently written.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const std::size_t slot =
        (next_slot_ + ring_.size() - 1 - i) % ring_.size();
    out.push_back(ring_[slot]);
  }
  return out;
}

std::vector<ActiveQuery> FlightRecorder::ActiveSnapshot() const {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ActiveQuery> out;
  out.reserve(active_.size());
  for (const auto& [id, entry] : active_) {
    ActiveQuery q;
    q.query_id = entry->query_id;
    q.session_id = entry->session_id;
    q.connection_id = entry->connection_id;
    q.sql = entry->sql;
    q.phase = PhaseOf(static_cast<QueryPhase>(
                          entry->phase.load(std::memory_order_relaxed)))
                  .name;
    {
      std::lock_guard<std::mutex> detail_lock(entry->detail_mu);
      if (!entry->phase_detail.empty()) {
        q.phase += "(" + entry->phase_detail + ")";
      }
      if (entry->mem != nullptr) {
        q.mem_bytes = entry->mem->current();
        q.mem_peak_bytes = entry->mem->peak();
      }
    }
    q.start_unix_us = entry->start_unix_us;
    q.elapsed_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            now - entry->start)
            .count();
    out.push_back(std::move(q));
  }
  std::sort(out.begin(), out.end(),
            [](const ActiveQuery& a, const ActiveQuery& b) {
              return a.query_id < b.query_id;
            });
  return out;
}

}  // namespace patchindex::obs

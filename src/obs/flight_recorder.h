#ifndef PATCHINDEX_OBS_FLIGHT_RECORDER_H_
#define PATCHINDEX_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/profile.h"

namespace patchindex::obs {

class MemoryTracker;

/// One completed statement as retained by the flight recorder — the row
/// shape of `pi_stats.queries`. Self-contained: no plan or session
/// pointers, safe to copy out of the ring at any time. The phase times
/// are the statement's QueryProfile timings, copied in one assignment.
struct QueryRecord : PhaseTimes {
  std::uint64_t query_id = 0;
  std::uint64_t session_id = 0;
  /// Server connection the statement arrived on; -1 for in-process
  /// sessions (local pisql, tests, piserver --init).
  std::int64_t connection_id = -1;
  std::string sql;
  /// "ok", or the Status code name for failed statements.
  std::string status = "ok";
  std::string error;
  std::uint64_t rows_returned = 0;
  std::uint64_t rows_affected = 0;
  bool parallel = false;
  /// Commit sequence number assigned by the WAL for durable DML; -1
  /// otherwise.
  std::int64_t csn = -1;
  /// Wall-clock statement start (unix microseconds).
  std::uint64_t start_unix_us = 0;
  /// Statement-wide peak of the per-query memory tracker (the same
  /// figure EXPLAIN ANALYZE's `peak_mem=` renders); 0 when the statement
  /// ran without accounting.
  std::uint64_t peak_mem_bytes = 0;
};

/// One in-flight statement as seen by `pi_stats.active_queries`.
struct ActiveQuery {
  std::uint64_t query_id = 0;
  std::uint64_t session_id = 0;
  std::int64_t connection_id = -1;
  std::string sql;
  /// Phase name, with the detail appended as "phase(detail)" when set —
  /// a commit-waiting DML statement shows the table it is blocked on.
  std::string phase = PhaseOf(QueryPhase::kParse).name;
  std::uint64_t start_unix_us = 0;
  double elapsed_ms = 0.0;
  /// Bytes the statement's memory tracker has charged so far; 0 when the
  /// statement has not attached one (parse/bind) or runs unaccounted.
  std::uint64_t mem_bytes = 0;
  /// High-water mark of mem_bytes so far (feeds pi_stats.memory's
  /// peak_bytes for in-flight statements).
  std::uint64_t mem_peak_bytes = 0;
};

/// Per-engine statement recorder: an active-query registry (what is
/// running right now) plus a fixed-capacity ring of the last N completed
/// QueryRecords (what just happened). Lock-light by construction — a
/// statement takes the mutex exactly twice (Begin and Complete), phase
/// updates are a relaxed atomic store on a handle the session holds, and
/// nothing here runs on the per-row or per-morsel path. Snapshots copy
/// under the same short mutex.
class FlightRecorder {
 public:
  /// An in-flight statement's registry entry. The session keeps the
  /// handle returned by Begin and advances `phase` through it without
  /// touching the recorder's mutex.
  struct ActiveEntry {
    std::uint64_t query_id = 0;
    std::uint64_t session_id = 0;
    std::int64_t connection_id = -1;
    std::string sql;
    std::uint64_t start_unix_us = 0;
    std::chrono::steady_clock::time_point start;
    std::atomic<int> phase{static_cast<int>(QueryPhase::kParse)};
    /// Free-text qualifier of the current phase (the table a commit-wait
    /// is blocked on). Guarded by its own mutex — it is off the phase
    /// advance's lock-free path and set only around lock acquisition.
    mutable std::mutex detail_mu;
    std::string phase_detail;
    /// The statement's memory tracker, attached by the session when
    /// execution starts and detached by Complete (so the balance releases
    /// when the session's reference drops, not when the epoch GC retires
    /// this entry). Guarded by detail_mu; ActiveSnapshot samples
    /// current() through it. Raw ActiveEntry pointers resolved under an
    /// epoch guard must not touch it — only snapshot holders of the
    /// shared Handle do.
    std::shared_ptr<MemoryTracker> mem;
  };
  using Handle = std::shared_ptr<ActiveEntry>;

  explicit FlightRecorder(std::size_t capacity);

  /// Registers an in-flight statement and returns its handle; the
  /// assigned engine-wide query id is `handle->query_id`.
  Handle Begin(std::uint64_t session_id, std::int64_t connection_id,
               const std::string& sql);

  /// Lock-free phase advance (the handle came from Begin).
  static void SetPhase(const Handle& handle, QueryPhase phase) {
    handle->phase.store(static_cast<int>(phase), std::memory_order_relaxed);
  }

  /// Sets (or, with an empty string, clears) the phase's free-text
  /// qualifier shown in pi_stats.active_queries. Not on the hot path —
  /// used around commit-wait lock acquisition.
  static void SetPhaseDetail(const Handle& handle, std::string detail);

  /// Attaches the statement's memory tracker so pi_stats.active_queries
  /// can show live per-query bytes. Complete detaches it.
  static void SetMemory(const Handle& handle,
                        std::shared_ptr<MemoryTracker> tracker);

  /// Unregisters the statement and retires `record` into the ring.
  /// query_id/session_id/connection_id/sql/start time are filled from the
  /// handle; the caller provides status and measurements. The registry
  /// entry itself is retired through the global EpochGc: an observer that
  /// resolved a raw ActiveEntry* under an epoch guard (lock-free
  /// cancellation probes, the server's teardown sweep) keeps it valid
  /// until its guard releases.
  void Complete(const Handle& handle, QueryRecord record);

  /// The retained completed statements, newest first.
  std::vector<QueryRecord> CompletedSnapshot() const;

  /// Everything in flight right now, oldest first, with elapsed time
  /// computed at the snapshot.
  std::vector<ActiveQuery> ActiveSnapshot() const;

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::uint64_t next_query_id_ = 1;
  /// Ring of completed records: slot next_slot_ is overwritten next;
  /// grows up to capacity_ then wraps.
  std::vector<QueryRecord> ring_;
  std::size_t next_slot_ = 0;
  std::uint64_t completed_ = 0;
  std::unordered_map<std::uint64_t, Handle> active_;
};

}  // namespace patchindex::obs

#endif  // PATCHINDEX_OBS_FLIGHT_RECORDER_H_

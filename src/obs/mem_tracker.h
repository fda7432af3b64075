#ifndef PATCHINDEX_OBS_MEM_TRACKER_H_
#define PATCHINDEX_OBS_MEM_TRACKER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace patchindex::obs {

struct NodeStats;

/// Thrown at a charge point when a memory budget would be exceeded.
/// Carries the operator that tripped the limit; the session boundary
/// catches it and converts it into a kResourceExhausted Status, so the
/// statement unwinds through the morsel executor's existing error path
/// (every worker task of a phase finishes before the first failure is
/// rethrown, keeping the shared state — result slots, morsel queues,
/// pinned versions — alive until no worker references it).
class ResourceExhaustedError : public std::runtime_error {
 public:
  ResourceExhaustedError(const char* op, std::uint64_t attempted_bytes,
                         std::uint64_t limit_bytes, const std::string& scope);

  /// The operator label the charge was attributed to ("HashJoin build",
  /// "Sort", ...).
  const std::string& op() const { return op_; }

 private:
  std::string op_;
};

/// A node in the memory-accounting hierarchy: process root → per-engine
/// → per-query (the server adds its own child for frame/result queues).
/// Charges propagate to every ancestor; each node enforces its own limit
/// (0 = unlimited). The current-bytes counter is striped like the metric
/// Counter's shards, so concurrent morsel workers charging one query
/// tracker stay on thread-private cache lines; the limit check and peak
/// update sum the shards, which is why charge points batch their deltas
/// (see OpMemory) instead of charging per row.
///
/// Accounting model: charge points account allocation high-water, not
/// malloc-exact liveness — per-query trackers are monotone while the
/// statement runs and release their whole balance to the parent when the
/// statement retires (the tracker is destroyed). Resident state (table
/// columns, PDTs, versions) is measured pull-style via ApproxBytes
/// walkers instead, and surfaced next to the tracked bytes in
/// `pi_stats.memory`.
class MemoryTracker {
 public:
  explicit MemoryTracker(std::string name, MemoryTracker* parent = nullptr,
                         std::uint64_t limit_bytes = 0);
  /// Releases any remaining balance to the parent chain.
  ~MemoryTracker();

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Adds `bytes` here and in every ancestor, updating peaks. When any
  /// node's limit would be exceeded the whole charge is rolled back and
  /// ResourceExhaustedError is thrown naming `op` and the node.
  void Charge(std::uint64_t bytes, const char* op);

  /// Charge without throwing: true on success, false (fully rolled
  /// back, `*scope` set to the over-limit node's name) on failure.
  bool TryCharge(std::uint64_t bytes, std::string* scope);

  /// Subtracts `bytes` here and in every ancestor.
  void Release(std::uint64_t bytes);

  /// Bytes currently charged (sums the stripes; may transiently miss
  /// in-flight charges, never double-counts).
  std::uint64_t current() const;
  /// High-water mark of current().
  std::uint64_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }
  std::uint64_t limit() const { return limit_; }
  const std::string& name() const { return name_; }
  MemoryTracker* parent() const { return parent_; }

 private:
  /// Charge one node; false (after local rollback) when over limit.
  bool ChargeSelf(std::uint64_t bytes);
  void ReleaseSelf(std::uint64_t bytes);

  struct alignas(64) Shard {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Shard, kStripes> shards_;
  std::atomic<std::uint64_t> peak_{0};
  const std::string name_;
  MemoryTracker* const parent_;
  const std::uint64_t limit_;
};

/// One tracker's figures copied out at a point in time — the row shape
/// `pi_stats.memory` serves for tracker-backed scopes.
struct MemoryTrackerSample {
  std::string name;
  std::uint64_t current_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t limit_bytes = 0;
};

/// The process-wide accounting root every engine parents under.
MemoryTracker& ProcessMemoryRoot();

/// The current thread's per-query tracker (null outside a statement).
/// Charge points deep in the operator tree — the executor's join builds,
/// aggregates, sorts and drains, and Collect — read it instead of having
/// a tracker plumbed through every constructor.
MemoryTracker* CurrentQueryTracker();

/// Installs `tracker` as the calling thread's query tracker for the
/// scope's lifetime (restoring the previous one on exit). The session
/// installs it around statement execution; the morsel executor installs
/// it inside every worker task.
class ScopedQueryTracker {
 public:
  explicit ScopedQueryTracker(MemoryTracker* tracker);
  ~ScopedQueryTracker();

  ScopedQueryTracker(const ScopedQueryTracker&) = delete;
  ScopedQueryTracker& operator=(const ScopedQueryTracker&) = delete;

 private:
  MemoryTracker* prev_;
};

/// One operator's (or one worker-instance-of-an-operator's) charges
/// against the thread's query tracker, batched: deltas accumulate
/// locally and flush to the tracker in >= kFlushBytes chunks (the
/// destructor flushes the remainder), so the striped-sum limit check
/// runs per chunk, not per batch. When `stats` is set every flushed
/// delta is also added to the plan node's mem_bytes accumulator — the
/// `mem=` figure EXPLAIN ANALYZE renders.
///
/// Charges are query-lifetime: OpMemory never releases (the per-query
/// tracker releases its whole balance when the statement retires), so
/// an operator's accounted bytes are its allocation high-water.
class OpMemory {
 public:
  static constexpr std::uint64_t kFlushBytes = 64 * 1024;

  explicit OpMemory(const char* op, NodeStats* stats = nullptr);
  /// Flushes the unflushed remainder.
  ~OpMemory();

  OpMemory(const OpMemory&) = delete;
  OpMemory& operator=(const OpMemory&) = delete;

  /// Accumulates `bytes`; throws ResourceExhaustedError (naming the
  /// construction-time op) when the flushed chunk exceeds a budget.
  void Add(std::uint64_t bytes) {
    total_ += bytes;
    if (total_ - flushed_ >= kFlushBytes) Flush();
  }

  /// Raises the accumulated total to `bytes` if it is below it (for
  /// charge sites that periodically re-estimate a structure's size).
  void GrowTo(std::uint64_t bytes) {
    if (bytes > total_) Add(bytes - total_);
  }

  /// Flushes pending bytes to the tracker/stats immediately.
  void Flush();

  /// Total bytes accumulated so far (flushed or not).
  std::uint64_t total() const { return total_; }

 private:
  MemoryTracker* tracker_;
  NodeStats* stats_;
  const char* op_;
  std::uint64_t total_ = 0;
  std::uint64_t flushed_ = 0;
};

}  // namespace patchindex::obs

#endif  // PATCHINDEX_OBS_MEM_TRACKER_H_
